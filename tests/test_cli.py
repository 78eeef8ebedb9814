"""The command line's inputs: which one sets which ExperimentConfig field
(the config-file key table, the flags' ``dest``s and the README's lists of
both), and a node count refused before the build."""

import argparse
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from pdmpval import cli, harness
from pdmpval.cli import main
from pdmpval.harness import ExperimentConfig

FIELDS = {f.name for f in fields(ExperimentConfig)}
README = Path(__file__).resolve().parents[1] / "README.md"
COMMANDS = ("value", "convergence", "epsilon-study")

# every key, each set away from its default
FILE = ("c = 4.5\nrho = 0.04\nb = 3.0\nlambda = 0.2\nalpha = 1.5\ndelta = 0.03\n"
        "epsilon = 0.02\nx0 = 0.5\nmethods = mc, halton\nm_schedule = 16, 32\njumps = 3\n"
        "replicates = 4\nseed = 7\nout = file.csv\nmc_paths = 50\nworkers = 3\n")


def _subparsers():
    (sub,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _flags(parser):
    """The options of ``parser`` but -h/--help, each with its dest."""
    return {opt: a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)
            for opt in a.option_strings}


def _build(tmp_path, monkeypatch, *argv):
    monkeypatch.delenv("PDMPVAL_SEED", raising=False)
    path = tmp_path / "exp.cfg"
    path.write_text(FILE)
    return cli._build_config(cli._parser().parse_args(["convergence", "--config", str(path),
                                                       *argv]))


def test_every_key_sets_its_own_field():
    targets = [field for field, _ in harness._CONFIG_KEYS.values()]
    assert set(targets) <= FIELDS
    assert len(set(targets)) == len(targets)


def test_every_field_but_timings_has_a_key():
    assert FIELDS - {field for field, _ in harness._CONFIG_KEYS.values()} == {"timings"}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_flag_but_config_stores_into_a_field(command):
    dests = _flags(_subparsers()[command])
    assert dests.pop("--config") == "config"
    assert set(dests.values()) <= FIELDS
    assert {"timings", "methods", "m_schedule", "eps"} <= set(dests.values())


def test_the_subcommands_share_their_flags():
    parsers = _subparsers()
    assert _flags(parsers["validate"]) == {}
    assert _flags(parsers["value"]) == _flags(parsers["convergence"]) \
        == _flags(parsers["epsilon-study"])


def test_the_file_sets_every_key(tmp_path, monkeypatch):
    cfg = _build(tmp_path, monkeypatch)
    assert cfg == replace(ExperimentConfig(), c=4.5, rho=0.04, b=3.0, lam=0.2, alpha=1.5,
                          delta=0.03, eps=0.02, x0=0.5, methods=("mc", "halton"),
                          m_schedule=(16, 32), jumps=3, replicates=4, seed=7, out="file.csv",
                          mc_paths=50, workers=3)


@pytest.mark.parametrize("argv, field, value", [
    (["--method", "sobol", "--method", "gauss"], "methods", ("sobol", "gauss")),
    (["--points", "64"], "m_schedule", (64,)),
    (["--points", "8", "--points", "64"], "m_schedule", (64,)),
    (["--jumps", "5"], "jumps", 5),
    (["--replicates", "6"], "replicates", 6),
    (["--seed", "0"], "seed", 0),
    (["--epsilon", "0.08", "--epsilon", "0.04"], "eps", 0.04),
    (["--x0", "-1.5"], "x0", -1.5),
    (["--out", "flag.csv"], "out", "flag.csv"),
    (["--workers", "2"], "workers", 2),
    (["--timings"], "timings", True),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_a_flag_overrides_only_its_own_key(tmp_path, monkeypatch, argv, field, value):
    assert _build(tmp_path, monkeypatch, *argv) == replace(_build(tmp_path, monkeypatch),
                                                           **{field: value})


@pytest.mark.parametrize("flag", ["--out", "--config"])
@pytest.mark.parametrize("command", COMMANDS)
def test_an_empty_path_flag_is_refused(tmp_path, monkeypatch, capsys, command, flag):
    # an empty --out used to fall back to the configured path, an empty
    # --config to no file: each ran the study and wrote where it was not told
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                        lambda **kw: pytest.fail("built"))
    code = main([command, "--points", "16", "--jumps", "1", "--replicates", "2", flag, ""])
    assert code == 2
    assert f"error: {flag} must name a path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS)
def test_an_empty_out_key_is_refused(tmp_path, monkeypatch, capsys, command):
    # one reading for all three: `value` would take an empty path as "no
    # CSV", the other two as the working directory ("cannot write .")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                        lambda **kw: pytest.fail("built"))
    (tmp_path / "exp.cfg").write_text("jumps = 1\nout =\n")
    code = main([command, "--points", "16", "--replicates", "2", "--config", "exp.cfg"])
    assert code == 2
    assert "error: config key 'out' must name a path, got an empty one" \
        in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def _readme_list(label: str) -> str:
    """The README's sentence that starts with ``label``, up to its full stop."""
    match = re.search(rf"^{label} (.*?)\.\s", README.read_text(), re.M | re.S)
    assert match, f"README has no '{label}' list"
    return match.group(1)


def test_readme_lists_every_flag():
    documented = set(re.findall(r"`(--[\w-]+)", _readme_list("Flags:")))
    assert documented == set(_flags(_subparsers()["value"]))


def test_readme_lists_every_config_key():
    documented = re.findall(r"`(\w+)`", _readme_list("Config keys:"))
    assert len(documented) == len(set(documented))
    assert set(documented) == set(harness._CONFIG_KEYS)


def test_sobol_node_count_past_the_sequence_fails_before_the_build(monkeypatch, capsys):
    monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                        lambda **kw: pytest.fail("built"))
    code = main(["value", "--method", "sobol", "--points", str(2 ** 32), "--jumps", "1"])
    assert code == 2
    assert "error: Sobol node count M = 4294967296 exceeds the 32-bit sequence" \
        in capsys.readouterr().err
