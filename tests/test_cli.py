import hashlib
import json

import pytest

from repsens import cli
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
    from repsens import config

    monkeypatch.setenv("REPSENS_LIMIT_BMS", "zero")
    with pytest.raises(ValueError):
        config.bms_limit()
    monkeypatch.setenv("REPSENS_LIMIT_BMS", "0")
    with pytest.raises(ValueError):
        config.bms_limit()


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
    opened = []

    def spy_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(cli, "open", spy_open, raising=False)
    target = tmp_path / "out.txt"
    # attractor-check without --positions fails after the output is opened
    code, _, err = run(
        capsys, "measure", "--what", "attractor-check", "--text", "ab",
        "--output", str(target),
    )
    assert code == 2 and "error:" in err
    assert [fh.name for fh in opened] == [str(target)]
    assert all(fh.closed for fh in opened)


# sha256 of stdout for each README CLI line (the lz78 sweep shortened to
# --p-max 12), plus lines that pin copy sources, the exact macro-scheme
# search and the bms repair ledger
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
}


@pytest.mark.parametrize("line", sorted(GOLDEN_STDOUT))
def test_cli_output_golden(capsys, line):
    code, out, err = run(capsys, *line.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[line], out
