import hashlib
import json
import random

import pytest

from repsens import CapabilityError, SymbolString, cli, config, lz78_witness, lz_witness
from repsens import factorizers as fz
from repsens import sensitivity as sv
from repsens.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factorize_lz78(capsys):
    code, out, err = run(capsys, "factorize", "--flavor", "lz78", "--text", "aaaa")
    assert code == 0
    assert "3 phrases" in out
    assert out.splitlines()[0] == "lz78 4 3"


def test_factorize_lzss_overlap(capsys):
    code, out, _ = run(capsys, "factorize", "--flavor", "lzss-overlap", "--text", "baaabbaaa")
    assert code == 0
    assert "5 phrases" in out


def test_factorize_over_limit(capsys):
    code, out, err = run(capsys, "factorize", "--flavor", "lzend-opt", "--text", "a" * 25)
    assert code != 0
    assert "error:" in err and "24" in err


def test_measure_attractor_min(capsys):
    code, out, _ = run(capsys, "measure", "--what", "attractor-min", "--text", "ab")
    assert code == 0
    assert out.splitlines()[0] == "2"


def test_measure_attractor_check(capsys):
    code, out, _ = run(
        capsys, "measure", "--what", "attractor-check", "--text", "baaaabbaaa",
        "--positions", "5 7",
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(
        capsys, "measure", "--what", "attractor-check", "--text", "ab", "--positions", "1"
    )
    assert code == 0 and out.strip() == "false"


def test_measure_delta_and_bms(capsys):
    code, out, _ = run(capsys, "measure", "--what", "delta", "--text", "abab")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "measure", "--what", "bms-min", "--text", "abab")
    assert code == 0 and out.splitlines()[0] == "3"


def test_witness_sidecar_expected_counts(capsys):
    code, out, _ = run(capsys, "witness", "--family", "lz78", "--p", "2")
    assert code == 0
    assert '"lz78_T":8' in out
    lines = out.splitlines()
    assert len(lines[0].split()) == 14  # base text, one symbol per column
    payload = [json.loads(ln) for ln in lines if ln.startswith("{")]
    kinds = {rec["record"] for rec in payload}
    assert kinds == {"expected", "symbols", "edits"}


def test_witness_lz_family(capsys):
    code, out, _ = run(capsys, "witness", "--family", "lz", "--p", "2")
    assert code == 0
    assert '"lzend_T":13' in out
    assert '"lzss_overlap_T_sub":18' in out


def test_witness_file_output_writes_sidecar(tmp_path, capsys):
    target = tmp_path / "fam.sym"
    code, _, _ = run(capsys, "witness", "--family", "lz78", "--p", "3",
                     "--output", str(target))
    assert code == 0
    texts = target.read_text().splitlines()
    assert len(texts) == 4 and len(texts[0].split()) == 21
    sidecar = (tmp_path / "fam.sym.jsonl").read_text().splitlines()
    assert '"lz78_T":12' in sidecar[0]
    assert json.loads(sidecar[1])["record"] == "symbols"


@pytest.mark.parametrize("existing", [True, False])
def test_witness_file_output_writes_both_files_or_neither(tmp_path, capsys, existing):
    # the sidecar path is a directory, so it cannot be written
    target = tmp_path / "fam.sym"
    (tmp_path / "fam.sym.jsonl").mkdir()
    if existing:
        target.write_bytes(b"earlier output\n")
    code, out, err = run(capsys, "witness", "--family", "lz78", "--p", "3",
                         "--output", str(target))
    assert code == 2 and out == "" and "error:" in err
    if existing:
        assert target.read_bytes() == b"earlier output\n"
    else:
        assert not target.exists()


def test_sensitivity_exhaustive_delta(capsys):
    code, out, _ = run(
        capsys, "sensitivity", "--measure", "delta", "--exhaustive",
        "--n", "8", "--sigma", "2", "--edit", "sub",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("measure,edit_kind,")
    fields = lines[1].split(",")
    assert fields[0] == "delta" and fields[5] == "1" and fields[-1] == "exhaustive"


def test_sensitivity_witness_sweep_deterministic(capsys):
    args = (
        "sensitivity", "--measure", "lz78", "--witness", "lz78",
        "--p-min", "2", "--p-max", "4", "--edit", "sub",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_repair_row_and_trace(capsys):
    code, out, _ = run(
        capsys, "repair", "--proc", "lzend", "--edit", "sub", "--pos", "2",
        "--symbol", "99", "--text", "abab", "--trace",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("procedure,edit_kind,")
    assert lines[1].startswith("lzend,sub,2,99,")
    assert any(ln.startswith("# phrase") for ln in lines)


@pytest.mark.parametrize("proc,pos,symbol,rows", [
    # bms lists the lone new symbol's row last, lzend in phrase order
    ("bms", "1", "97", ["1 bms:2", "0 bms:1"]),
    ("bms", "0", "97", ["1 bms:2", "0 bms:1"]),
    ("lzend", "0", "1", ["0 lzend:2", "1 lzend:3A"]),
    ("lzend", "1", "1", ["1 lzend:1", "0 lzend:2"]),
])
def test_repair_trace_orders_an_insertion_between_phrases(capsys, proc, pos, symbol, rows):
    code, out, _ = run(
        capsys, "repair", "--proc", proc, "--edit", "ins", "--pos", pos,
        "--symbol", symbol, "--text", "a", "--trace",
    )
    assert code == 0
    ledger = [ln for ln in out.splitlines() if ln.startswith("# phrase")]
    assert ledger == [f"# phrase {row} -> 1" for row in rows]


def test_repair_bms_and_attractor(capsys):
    code, out, _ = run(
        capsys, "repair", "--proc", "bms", "--edit", "del", "--pos", "1", "--text", "abab"
    )
    assert code == 0 and out.splitlines()[1].startswith("bms,del,1,,")
    code, out, _ = run(
        capsys, "repair", "--proc", "attractor", "--edit", "ins", "--pos", "0",
        "--symbol", "120", "--text", "baaaabbaaa",
    )
    assert code == 0 and out.splitlines()[1].startswith("attractor,ins,0,120,")


def test_repair_requires_symbol(capsys):
    code, out, err = run(
        capsys, "repair", "--proc", "bms", "--edit", "sub", "--pos", "1", "--text", "ab"
    )
    assert code != 0 and "symbol" in err


@pytest.mark.parametrize("argv,flag", [
    (("repair", "--proc", "bms", "--edit", "del", "--pos", "1", "--symbol", "99"), "--symbol"),
    (("repair", "--proc", "attractor", "--edit", "del", "--pos", "1", "--symbol", "99"),
     "--symbol"),
    (("repair", "--proc", "bms", "--edit", "sub", "--pos", "1", "--symbol", "99",
      "--attractor", "1 2"), "--attractor"),
    (("repair", "--proc", "lzend", "--edit", "ins", "--pos", "0", "--symbol", "99",
      "--attractor", "1 2"), "--attractor"),
    (("measure", "--what", "delta", "--positions", "1 2"), "--positions"),
    (("measure", "--what", "attractor-min", "--positions", "1 2"), "--positions"),
    (("measure", "--what", "bms-min", "--positions", "1 2"), "--positions"),
])
def test_repair_and_measure_reject_flags_they_ignore(capsys, argv, flag):
    code, out, err = run(capsys, *argv, "--text", "abab")
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


def test_repair_checks_a_given_empty_attractor(capsys):
    code, out, err = run(
        capsys, "repair", "--proc", "attractor", "--edit", "sub", "--pos", "1",
        "--symbol", "99", "--attractor", "", "--text", "abab",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not an attractor" in err


def test_file_round_trip(tmp_path, capsys):
    symbolic = tmp_path / "text.sym"
    symbolic.write_text("0 1 0 1\n")
    code, out, _ = run(
        capsys, "factorize", "--flavor", "lzend", "--input", str(symbolic),
        "--format", "symbolic",
    )
    assert code == 0
    assert out.splitlines()[0] == "lzend 4 3"

    raw = tmp_path / "text.bin"
    raw.write_bytes(b"abab")
    outfile = tmp_path / "fact.txt"
    code, _, _ = run(
        capsys, "factorize", "--flavor", "lzend", "--input", str(raw),
        "--output", str(outfile),
    )
    assert code == 0
    assert outfile.read_text().splitlines()[0] == "lzend 4 3"


def test_identical_invocations_byte_identical(capsys):
    args = ("sensitivity", "--measure", "lzss_overlap", "--random", "5",
            "--n", "12", "--sigma", "3", "--seed", "0", "--edit", "all")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_missing_input_is_an_error(capsys):
    code, out, err = run(capsys, "measure", "--what", "delta")
    assert code == 2
    assert "error:" in err


def test_limit_env_overrides(capsys, monkeypatch):
    code, _, err = run(capsys, "factorize", "--flavor", "lzend-opt", "--text", "a" * 25)
    assert code == 2 and "REPSENS_LIMIT_LZEND_OPT" in err
    monkeypatch.setenv("REPSENS_LIMIT_LZEND_OPT", "30")
    code, out, _ = run(capsys, "factorize", "--flavor", "lzend-opt", "--text", "a" * 25)
    assert code == 0 and "phrases" in out


def test_limit_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPSENS_LIMIT_BMS", "zero")
    with pytest.raises(ValueError):
        config.limit("REPSENS_LIMIT_BMS")
    monkeypatch.setenv("REPSENS_LIMIT_BMS", "0")
    with pytest.raises(ValueError):
        config.limit("REPSENS_LIMIT_BMS")


@pytest.mark.parametrize(
    "n, sigma, admitted",
    [(20, 2, True), (21, 2, False), (12, 3, True), (13, 3, False), (10**6, 1, True), (10**6, 2, False)],
)
def test_exhaustive_cap_compares_the_whole_power(monkeypatch, n, sigma, admitted):
    # sigma**n against the default 2**20, though the power is cut at the
    # cap's bit length
    monkeypatch.delenv("REPSENS_LIMIT_EXHAUSTIVE", raising=False)
    if admitted:
        assert config.check("REPSENS_LIMIT_EXHAUSTIVE", n, sigma) == 1 << 20
    else:
        with pytest.raises(CapabilityError, match=f"^sigma\\*\\*n = {sigma}\\*\\*{n} exceeds"):
            config.check("REPSENS_LIMIT_EXHAUSTIVE", n, sigma)


def exhaustive_call(n):
    return ["sensitivity", "--measure", "delta", "--exhaustive", "--n", str(n), "--sigma", "2"]


# every cap of config.LIMITS: the CLI call that runs its search at length n
# (on every binary string of length n for the exhaustive cap), and the cases
# (variable's value or None for unset, n, the message, or None when admitted)
CAP_CASES = {
    "REPSENS_LIMIT_LZEND_OPT": (
        lambda n: ["factorize", "--flavor", "lzend-opt", "--text", "a" * n],
        [
            (None, 25, "length 25 exceeds the exact LZ-End search limit 24 (REPSENS_LIMIT_LZEND_OPT)"),
            ("25", 25, None),
        ],
    ),
    "REPSENS_LIMIT_ATTRACTOR": (
        lambda n: ["measure", "--what", "attractor-min", "--text", "a" * n],
        [
            (None, 21, "length 21 exceeds the smallest-attractor search limit 20 (REPSENS_LIMIT_ATTRACTOR)"),
            ("21", 21, None),
        ],
    ),
    "REPSENS_LIMIT_BMS": (
        lambda n: ["measure", "--what", "bms-min", "--text", "a" * n],
        [
            (None, 17, "length 17 exceeds the smallest-macro-scheme search limit 16 (REPSENS_LIMIT_BMS)"),
            ("17", 17, None),
        ],
    ),
    "REPSENS_LIMIT_EXHAUSTIVE": (
        exhaustive_call,
        [
            (None, 21, "sigma**n = 2**21 exceeds the exhaustive budget 1048576 (REPSENS_LIMIT_EXHAUSTIVE)"),
            ("64", 7, "sigma**n = 2**7 exceeds the exhaustive budget 64 (REPSENS_LIMIT_EXHAUSTIVE)"),
            ("64", 6, None),
        ],
    ),
}


def test_cap_cases_cover_the_table():
    assert set(CAP_CASES) == set(config.LIMITS)


@pytest.mark.parametrize("name", sorted(CAP_CASES))
def test_every_cap_rejects_past_it_and_follows_its_variable(capsys, monkeypatch, name):
    call, cases = CAP_CASES[name]
    for value, n, message in cases:
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
        code, out, err = run(capsys, *call(n))
        if message is None:
            assert code == 0 and err == "" and out
        else:
            assert (code, out, err) == (2, "", f"error: {message}\n")
    for value in ("1.5", "zero", "0"):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, *call(2))
        assert code == 2 and out == ""
        assert err.startswith("error:") and name in err


def test_exhaustive_far_over_budget_is_a_short_error(capsys):
    # sigma**n here has 6021 digits, past int-to-str's default digit limit
    code, out, err = run(capsys, *exhaustive_call(20000))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "REPSENS_LIMIT_EXHAUSTIVE" in err
    assert len(err) < 200


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_reports_bad_limit_env(capsys, monkeypatch, value):
    monkeypatch.setenv("REPSENS_LIMIT_BMS", value)
    code, out, err = run(capsys, "measure", "--what", "bms-min", "--text", "abab")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "REPSENS_LIMIT_BMS" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sensitivity_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run(
        capsys, "sensitivity", "--measure", "delta", "--exhaustive",
        "--n", "4", "--sigma", "2", "--jobs", jobs,
    )
    assert code == 2 and out == ""
    assert "error:" in err and "--jobs" in err


def test_sensitivity_rejects_empty_p_range(capsys):
    code, out, err = run(
        capsys, "sensitivity", "--measure", "lz78", "--witness", "lz78",
        "--p-min", "5", "--p-max", "4",
    )
    assert code == 2 and out == ""
    assert "error:" in err and "--p-max" in err


def test_output_file_closed_when_command_fails(tmp_path, capsys, monkeypatch):
    # output is buffered, so a failing command never opens --output and an
    # existing file keeps its bytes
    opened = []

    def spy_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    target = tmp_path / "out.txt"
    target.write_bytes(b"earlier output\n")
    failing = [
        ("measure", "--what", "attractor-check", "--text", "ab"),  # no --positions
        ("measure", "--what", "attractor-min", "--text", "ab" * 11),  # over the cap
    ]
    for argv in failing:
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 2 and out == "" and "error:" in err
    assert opened == []
    assert target.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("flag", [("--p-min", "9"), ("--p-max", "1")])
def test_sensitivity_rejects_p_range_without_witness(capsys, flag):
    code, out, err = run(
        capsys, "sensitivity", "--measure", "delta", "--exhaustive",
        "--n", "4", "--sigma", "2", *flag,
    )
    assert code == 2 and out == ""
    assert "error:" in err and "--witness" in err


def test_sensitivity_rejects_jobs_without_exhaustive(capsys):
    code, out, err = run(
        capsys, "sensitivity", "--measure", "lz78", "--witness", "lz78",
        "--p-min", "4", "--jobs", "2",
    )
    assert code == 2 and out == ""
    assert "error:" in err and "--exhaustive" in err


@pytest.mark.parametrize("extra", [
    ("--exhaustive", "--n", "11", "--sigma", "2"),
    ("--random", "3", "--n", "6", "--sigma", "2"),
    ("--text", "abaab"),
    ("--witness", "lz78"),
    ("--witness", "lz78", "--p-min", "4", "--p-max", "6"),
])
def test_sensitivity_rejects_fit_before_the_sweep(capsys, monkeypatch, extra):
    # a fit needs four distinct n; these sweeps cannot give them, and no sweep runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(sv, "exhaustive_sensitivity", no_sweep)
    monkeypatch.setattr(sv, "sensitivity_of_string", no_sweep)
    code, out, err = run(capsys, "sensitivity", "--measure", "lzend_opt", *extra, "--fit")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--fit" in err


def test_symbolic_file_not_utf8_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2 \xff 3\n")
    code, out, err = run(capsys, "measure", "--what", "delta", "--input", str(path),
                         "--format", "symbolic")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "UTF-8" in err


def test_text_argument_is_read_as_its_bytes(capsys):
    # a non-UTF-8 argv byte arrives as a surrogate escape and stays one symbol
    code, out, _ = run(capsys, "factorize", "--flavor", "lz78", "--text", "a\udcffb")
    assert code == 0 and out.splitlines()[0] == "lz78 3 3"
    code, out, err = run(capsys, "measure", "--what", "delta", "--text", "\ud800")
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", [
    ("factorize", "--flavor", "lz78"),
    ("measure", "--what", "delta"),
    ("repair", "--proc", "lzend", "--edit", "del", "--pos", "1"),
    ("sensitivity", "--measure", "lz78"),
])
@pytest.mark.parametrize("extra,flag", [
    (("--input", "/nonexistent/file"), "--input"),
    (("--format", "symbolic"), "--format"),
])
def test_text_rejects_input_and_format(capsys, command, extra, flag):
    code, out, err = run(capsys, *command, "--text", "aaaa", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


def test_random_sweep_without_seed_uses_seed_zero(capsys):
    args = ("sensitivity", "--measure", "lz78", "--random", "3", "--n", "9", "--sigma", "3")
    _, unseeded, _ = run(capsys, *args)
    assert unseeded == run(capsys, *args, "--seed", "0")[1]
    assert unseeded != run(capsys, *args, "--seed", "1")[1]


def _choices(command, flag):
    """The choices of ``flag`` in the ``command`` subparser, in their order."""
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return list(next(a for a in subs.choices[command]._actions if flag in a.option_strings).choices)


def test_name_lists_are_pinned():
    assert sorted(cli.FLAVOR_FLAGS) == [
        "lz77-nonoverlap", "lz77-overlap", "lz78", "lzend", "lzend-opt",
        "lzss-nonoverlap", "lzss-overlap",
    ]
    assert sorted(sv.MEASURES) == [
        "bms", "delta", "gamma", "lz77_nonoverlap", "lz77_overlap", "lz78", "lzend",
        "lzend_opt", "lzss_nonoverlap", "lzss_overlap",
    ]
    assert fz.FLAVORS == (
        "lzss_overlap", "lzss_nonoverlap", "lz77_overlap", "lz77_nonoverlap", "lzend", "lz78",
        "bms",
    )
    assert _choices("factorize", "--flavor") == sorted(cli.FLAVOR_FLAGS)
    assert _choices("sensitivity", "--measure") == sorted(sv.MEASURES)
    assert _choices("witness", "--family") == _choices("sensitivity", "--witness") == ["lz", "lz78"]
    assert _choices("repair", "--edit") == ["sub", "ins", "del"]
    assert _choices("sensitivity", "--edit") == ["sub", "ins", "del", "all"]


@pytest.mark.parametrize("flag", sorted(cli.FLAVOR_FLAGS))
def test_sweep_sizes_match_the_public_factorizers(flag):
    # the sweeps count a loop's phrase tuples (MEASURES); the CLI builds the
    # Factorization (FLAVOR_FLAGS): both must give the same size
    name = flag.replace("-", "_")
    rng = random.Random(89)
    texts = [
        SymbolString(rng.randrange(sigma) for _ in range(rng.randint(1, 40)))
        for sigma in (2, 3, 4)
        for _ in range(25)
    ]
    texts += [lz_witness(p).base for p in (2, 3)] + [lz78_witness(p).base for p in (2, 3, 4)]
    if name == "lzend_opt":
        texts = [T for T in texts if len(T) <= 24]
    for T in texts:
        F = cli.FLAVOR_FLAGS[flag](T)
        assert sv.MEASURES[name](T) == F.size, T
        assert F.flavor == ("lzend" if name == "lzend_opt" else name)


@pytest.mark.parametrize("extra", [
    ("--random", "2", "--n", "3", "--sigma", "0"),
    ("--random", "2", "--n", "0", "--sigma", "2"),
    ("--random", "-1", "--n", "3", "--sigma", "2"),
    ("--random", "0", "--n", "3", "--sigma", "2"),
    ("--random", "2", "--n", "3", "--sigma", "2", "--exhaustive"),
    ("--random", "2", "--n", "3", "--sigma", "2", "--witness", "lz78"),
    ("--exhaustive", "--n", "3", "--sigma", "2", "--witness", "lz78"),
])
def test_sensitivity_rejects_bad_random_sweeps(capsys, extra):
    code, out, err = run(capsys, "sensitivity", "--measure", "delta", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("extra,flag", [
    (("--witness", "lz78", "--p-min", "2", "--p-max", "2", "--n", "5", "--sigma", "9", "--text", "zz"),
     "--text"),
    (("--witness", "lz78", "--text", "zz"), "--text"),
    (("--exhaustive", "--n", "3", "--sigma", "2", "--text", "abcdef"), "--text"),
    (("--random", "1", "--n", "3", "--sigma", "2", "--input", "in.txt"), "--input"),
    (("--exhaustive", "--n", "3", "--sigma", "2", "--format", "symbolic"), "--format"),
    (("--witness", "lz78", "--n", "5"), "--n"),
    (("--witness", "lz78", "--sigma", "5"), "--sigma"),
    (("--text", "ab", "--n", "3"), "--n"),
    (("--text", "ab", "--sigma", "3"), "--sigma"),
    (("--exhaustive", "--n", "3", "--sigma", "2", "--seed", "5"), "--seed"),
    (("--witness", "lz78", "--seed", "5"), "--seed"),
    (("--text", "abab", "--seed", "5"), "--seed"),
])
def test_sensitivity_rejects_flags_the_sweep_ignores(capsys, extra, flag):
    code, out, err = run(capsys, "sensitivity", "--measure", "lz78", *extra)
    assert code == 2 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize("measure", sorted(sv.MEASURES))
def test_sensitivity_deleting_the_only_symbol(capsys, measure):
    code, out, err = run(capsys, "sensitivity", "--measure", measure, "--exhaustive",
                         "--n", "1", "--sigma", "2", "--edit", "del")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == f"{measure},del,1,1,0,-1,0,1,1,,exhaustive"


def test_lz_witness_sweep_rows(capsys):
    # substitutes over the base's whole alphabet (2p + 1 + p^2 symbols) plus
    # one fresh symbol; the designated edit alone gains p^2 + 1
    code, out, err = run(
        capsys, "sensitivity", "--measure", "lzss_overlap", "--witness", "lz",
        "--p-min", "2", "--p-max", "4",
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == sv.CSV_HEADER and len(lines) == 4
    for p, line in zip(range(2, 5), lines[1:]):
        row = dict(zip(sv.CSV_HEADER.split(","), line.split(",")))
        assert (row["measure"], row["edit_kind"]) == ("lzss_overlap", "sub")
        assert row["source"] == "witness"
        assert int(row["n"]) == p**3 + 3 * p * p + 2 * p + 1
        assert int(row["c_T"]) == 2 * p * p + 2 * p + 1
        assert int(row["AS"]) >= p * p + 1
        assert int(row["c_Tprime"]) - int(row["c_T"]) == int(row["AS"])


def test_empty_text_still_rejected_outside_sweeps(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    commands = [("factorize", "--flavor", flavor) for flavor in sorted(cli.FLAVOR_FLAGS)]
    commands += [("measure", "--what", what) for what in ("delta", "bms-min", "attractor-min")]
    commands += [("measure", "--what", "attractor-check", "--positions", "")]
    for argv in commands:
        code, out, err = run(capsys, *argv, "--input", str(empty))
        assert code == 2 and out == "" and err.startswith("error:"), argv


# sha256 of stdout for each README CLI line (the lz78 sweep shortened to
# --p-max 12), plus lines that pin copy sources, the exact macro-scheme
# search, the bms repair ledger and exhaustive sweeps of every edit kind
GOLDEN_STDOUT = {
    "factorize --flavor lz78 --text aaaa":
        "ad26523a4fc60e93e9d0ee2d22b90a328432a0f129b228f24388465d8970ff2b",
    "factorize --flavor lzend-opt --text abaabab":
        "f47ba80f5ef237c954ebdd7943fa6e60e9bb0e46e65df69faef6ca01f5d9aceb",
    "measure --what attractor-min --text baaaabbaaa":
        "5d68d34af99cfbd7cc6c19816f488c4b17c8934c69f4173d518f245aeab0fbc9",
    "measure --what delta --text abab":
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "repair --proc lzend --edit sub --pos 2 --symbol 99 --text abab --trace":
        "e2b25bac159605ed7eb95c17a764ba123303ee91635a60110c2e6f31dbb4a81a",
    "witness --family lz78 --p 2":
        "edf19d2d1b718a18ff3380d2c43c43322fdb6e40196b1f3d0eb74084974af4a2",
    "sensitivity --measure delta --exhaustive --n 8 --sigma 2 --edit sub":
        "7f5e4c593b1ca1ad6c4dae97615d3b9c2b6315770a321d36fcae89e7071c27a4",
    "sensitivity --measure lz78 --witness lz78 --p-min 4 --p-max 12 --fit":
        "bccefd814dbb10a402f4db80e3d90680fabf72890909e46103c16aa0b3d4c4cf",
    "factorize --flavor lzss-overlap --text abaababaabaab":
        "e59a5f4e6f84f7c3e363c31dea33e1f84ed8a00a3f14631f0c1e35b2bc2a72d6",
    "factorize --flavor lz77-nonoverlap --text abaababaabaab":
        "5a4c153669e57c2e967d18cbdeb5e448f62e09bffc5424b58ee167dde613ff82",
    "measure --what bms-min --text abaababa":
        "ea45120ace718af190ed024d10469a0d09c292c7618d9ba7e85d617154686e5f",
    "repair --proc bms --edit sub --pos 3 --symbol 99 --text abaababaab --trace":
        "fe6a7a53b288a0d76c3f29a3c016dd94017f882238a2cea6f2a843912a020d98",
    "sensitivity --measure lz78 --exhaustive --n 8 --sigma 2 --edit all":
        "0d0fcf593d9717fab5b0c0f27cd3de6757d1f5722fade2a7b54dca5d7f48ab43",
    "sensitivity --measure lzend --exhaustive --n 8 --sigma 2 --edit all":
        "73da2a082d1024b480cd0fe07595b79cb6c95e2dad3b3c666f72d7d5880804e9",
    "sensitivity --measure gamma --exhaustive --n 7 --sigma 2 --edit all":
        "b23a8d4edc314e71c09c95c4cbe7fbf0d6fc0a2fdb1c43d4bd506a413cca4d90",
    "sensitivity --measure bms --exhaustive --n 6 --sigma 2 --edit all":
        "710bedf7150f90cf9a11aec89acfc2f9106883ad8a58de896535ca35ffbfecb7",
    "sensitivity --measure lzend_opt --exhaustive --n 7 --sigma 2 --edit all":
        "dd2fc2cc1867fc6c6b2bcb431fee1ee9459017c330dabdf274a66daefb6f5b80",
    "sensitivity --measure lzend --exhaustive --n 7 --sigma 3 --edit all --jobs 2":
        "b5a19db2fcf0343d3415f98c6ad87f3d8b47dcb1b6b7afa8dcc3e5bfe8bdcef5",
    "sensitivity --measure lz78 --witness lz78 --p-min 1 --p-max 16 --edit all --fit":
        "c8f094f9c2704cf1a1a53b2c2abbfe956690a58ac6fa3775aacb3407eb045313",
    "sensitivity --measure lz78 --witness lz --p-min 2 --p-max 5 --edit all":
        "ca24a45a15d41052ec42f93a2d1db7a19b868375a64db9b6209623a2c3a3eedb",
    "sensitivity --measure lz77_overlap --witness lz --p-min 2 --p-max 5 --edit all":
        "7f40bee5e618a847df18c44780c07097f824c84d20762c5fac4a9a49236b1529",
    "sensitivity --measure lzss_nonoverlap --witness lz --p-min 2 --p-max 5 --edit all":
        "baa5f464b326b076141012be936df6f5c7641cd767f0611135eb1db971befeee",
}


@pytest.mark.parametrize("line", sorted(GOLDEN_STDOUT))
def test_cli_output_golden(capsys, line):
    code, out, err = run(capsys, *line.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[line], out
