"""The bytes the command line prints and writes, pinned: a change to the
run plan, the CSV or the plot-data format that moves a digit fails here."""

import hashlib

import pytest

from pdmpval.cli import main


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PDMPVAL_SEED", raising=False)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_value_prints_its_golden_line(capsys):
    code = main(["value", "--method", "sobol", "--points", "4096", "--jumps", "32",
                 "--replicates", "4"])
    assert code == 0
    assert capsys.readouterr().out == ("value=0.304967486 std_error=0.00782892 "
                                       "bias_bound=213.121 M=4096 d=64 replicates=4\n")


def test_convergence_writes_its_golden_files(tmp_path):
    (tmp_path / "exp.cfg").write_text("methods = mc, sobol\nm_schedule = 64, 128\njumps = 3\n"
                                      "replicates = 3\nseed = 7\nout = conv.csv\n")
    assert main(["convergence", "--config", "exp.cfg"]) == 0
    assert {p.name: _sha256(p) for p in tmp_path.glob("conv*")} == {
        "conv.csv": "d446910da40708895f8d145bfdf54f367a05da75a591712584632d58d6010f6c",
        "conv_mc.dat": "e3ac63e52f86067aa811efab83a63ff7929610acf4e450ea1d8080368d7324d2",
        "conv_sobol.dat": "f9406a5bff6754771bc55dbbdc0e2602da63aff5b0d5c97557a35af33434c9c6",
    }


def test_epsilon_study_writes_its_golden_csv(tmp_path):
    code = main(["epsilon-study", "--epsilon", "0.08", "--epsilon", "0.04", "--points", "512",
                 "--jumps", "2", "--replicates", "3", "--out", "eps.csv"])
    assert code == 0
    assert _sha256(tmp_path / "eps.csv") == \
        "53a110722083c761df2438ba53fd01d0ac753115e8fea23202a318abc95c4704"
