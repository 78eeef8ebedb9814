import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pdmpval import cli, harness, smoothing
from pdmpval.cli import main
from pdmpval.errors import InputError
from pdmpval.harness import (
    CSV_HEADER,
    EPS_CSV_HEADER,
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
    run_convergence,
    run_epsilon_study,
    run_validate,
    run_value,
)


def tiny_config(tmp_path, **overrides):
    base = dict(
        methods=("mc", "sobol"),
        m_schedule=(64, 128, 256),
        jumps=2,
        replicates=3,
        seed=7,
        out=str(tmp_path / "conv.csv"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_are_published_parameters(self):
        cfg = ExperimentConfig()
        assert (cfg.c, cfg.rho, cfg.b, cfg.lam) == (5.0, 0.05, 3.24289, 4.0)
        assert (cfg.alpha, cfg.delta, cfg.eps, cfg.x0) == (1.0, 0.02, 0.01, 0.0)

    def test_schedule_must_increase(self):
        with pytest.raises(InputError):
            ExperimentConfig(m_schedule=(100, 100))
        with pytest.raises(InputError):
            ExperimentConfig(m_schedule=())

    @pytest.mark.parametrize("schedule", [(0,), (-4, 8), (64, 128.0), (64.5,)])
    def test_schedule_entries_are_positive_integers(self, schedule):
        with pytest.raises(InputError, match="node count"):
            ExperimentConfig(m_schedule=schedule)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_x0_must_be_finite(self, x0):
        with pytest.raises(InputError, match="finite"):
            ExperimentConfig(x0=x0)

    @pytest.mark.parametrize("c, rho, x0", [
        (5.0, 0.05, -100.0), (5.0, 0.05, -100.5), (5.0, 0.05, -1e300), (1.0, 0.5, -2.0),
    ], ids=["at-ruin", "below", "far-below", "other-rates"])
    def test_x0_at_or_below_ruin_level_rejected(self, c, rho, x0):
        with pytest.raises(InputError, match="ruin level"):
            ExperimentConfig(c=c, rho=rho, x0=x0)

    def test_x0_just_above_ruin_level_is_accepted(self):
        x0 = math.nextafter(-100.0, 0.0)
        assert ExperimentConfig(x0=x0).x0 == x0
        assert ExperimentConfig(c=1.0, rho=0.5, x0=-1.99).x0 == -1.99

    def test_x0_above_barrier_is_accepted(self):
        # the lump-sum convention above the barrier is the valuation's business
        assert ExperimentConfig(x0=10.0).x0 == 10.0

    def test_replicates_floor(self):
        with pytest.raises(InputError):
            ExperimentConfig(replicates=1)

    @pytest.mark.parametrize("methods", [("mc",), ("sobol",), ("halton",), ("gauss", "sobol")])
    def test_replicates_floor_for_randomized_rules(self, methods):
        with pytest.raises(InputError, match="replicates"):
            ExperimentConfig(methods=methods, replicates=1)

    def test_gauss_alone_needs_one_replicate(self):
        assert ExperimentConfig(methods=("gauss",), replicates=1).replicates == 1
        with pytest.raises(InputError, match="replicates"):
            ExperimentConfig(methods=("gauss",), replicates=0)

    @pytest.mark.parametrize("workers", [0, -3, 1.5, True, "2"])
    def test_workers_validated(self, workers):
        with pytest.raises(InputError, match="workers"):
            ExperimentConfig(workers=workers)

    @pytest.mark.parametrize("jumps", [0, -2, 2.5, 2.0, True, "2"])
    def test_jumps_validated(self, jumps):
        with pytest.raises(InputError, match="jumps"):
            ExperimentConfig(jumps=jumps)

    @pytest.mark.parametrize("mc_paths", [0, 1, -5, 1000.0, False, "100"])
    def test_mc_paths_validated(self, mc_paths):
        with pytest.raises(InputError, match="mc_paths"):
            ExperimentConfig(mc_paths=mc_paths)

    def test_unknown_method(self):
        with pytest.raises(InputError):
            ExperimentConfig(methods=("sobol", "lattice"))

    def test_empty_methods_rejected(self, tmp_path):
        with pytest.raises(InputError, match="method list"):
            ExperimentConfig(methods=())
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("methods = ,\n")
        with pytest.raises(InputError, match="method list"):
            config_from_mapping(parse_config_file(cfg_file))

    def test_repeated_methods_rejected(self, tmp_path):
        # a repeated method would run every estimate twice and write each row twice
        with pytest.raises(InputError, match=r"methods \['gauss'\] given more than once"):
            ExperimentConfig(methods=("gauss", "sobol", "gauss"))
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("methods = sobol, sobol\n")
        with pytest.raises(InputError, match="more than once"):
            config_from_mapping(parse_config_file(cfg_file))

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment\n"
            "c = 5.0\nrho = 0.05\nb = 3.24289\nlambda = 4.0\nalpha = 1.0\n"
            "delta = 0.02\nepsilon = 0.02\nx0 = 0.5\n"
            "methods = sobol, halton\nm_schedule = 50, 100\n"
            "jumps = 4\nreplicates = 5\nseed = 99\nout = here.csv\n"
        )
        cfg = config_from_mapping(parse_config_file(path))
        assert cfg.lam == 4.0 and cfg.eps == 0.02 and cfg.x0 == 0.5
        assert cfg.methods == ("sobol", "halton")
        assert cfg.m_schedule == (50, 100)
        assert (cfg.jumps, cfg.replicates, cfg.seed, cfg.out) == (4, 5, 99, "here.csv")

    @pytest.mark.parametrize("line", ["methods = sobol,,halton", "m_schedule = 16,,32",
                                      "methods = sobol,", "m_schedule = ,16"])
    def test_empty_list_entry_rejected(self, tmp_path, line):
        # one rule for both list keys: methods used to drop the empty entry
        path = tmp_path / "exp.cfg"
        path.write_text(line + "\n")
        key, value = line.split(" = ")
        with pytest.raises(InputError, match=f"^config key '{key}': empty entry in '{value}'$"):
            config_from_mapping(parse_config_file(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("frob = 3\n")
        with pytest.raises(InputError):
            config_from_mapping(parse_config_file(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("just some words\n")
        with pytest.raises(InputError):
            parse_config_file(path)

    @pytest.mark.parametrize("line", ["c = five", "jumps = 2.5", "m_schedule = 64, x"])
    def test_malformed_value_rejected(self, tmp_path, line):
        path = tmp_path / "exp.cfg"
        path.write_text(line + "\n")
        with pytest.raises(InputError, match=line.split()[0]):
            config_from_mapping(parse_config_file(path))


class TestRunValue:
    def test_csv_written_only_when_asked(self, tmp_path):
        cfg = tiny_config(tmp_path, methods=("gauss", "sobol"), m_schedule=(4,), out="")
        est = run_value(cfg)
        assert est.replicates == 1 and est.std_error is None
        assert list(tmp_path.iterdir()) == []
        out_csv = tmp_path / "value.csv"
        assert run_value(replace(cfg, out=str(out_csv))).value == est.value
        rows = out_csv.read_text().splitlines()
        assert rows == [CSV_HEADER, f"gauss,4,4,1,{est.value:.17g},,{est.bias_bound:.17g},7,0"]

    def test_unknown_method_fails_before_the_build(self, monkeypatch):
        builds = []
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: builds.append(kw) or pytest.fail("built"))
        cfg = ExperimentConfig(methods=("sobol",), m_schedule=(16,), jumps=1, replicates=2)
        with pytest.raises(InputError, match=r"'bogus'.*choose from \['gauss', 'halton'"):
            run_value(replace(cfg, methods=("bogus",)))
        assert builds == []


class TestRunConvergence:
    def test_structure_and_determinism(self, tmp_path):
        cfg = tiny_config(tmp_path)
        csv_path, rows = run_convergence(cfg)
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 2 * 3
        for method, start in (("mc", 1), ("sobol", 4)):
            ms = [int(r.split(",")[1]) for r in rows[start:start + 3]]
            assert ms == [64, 128, 256]
            assert all(r.split(",")[0] == method for r in rows[start:start + 3])
        body1 = Path(csv_path).read_bytes()
        run_convergence(cfg)
        assert Path(csv_path).read_bytes() == body1

    def test_worker_count_invariance(self, tmp_path):
        cfg1 = tiny_config(tmp_path, out=str(tmp_path / "w1.csv"), workers=1)
        cfg8 = tiny_config(tmp_path, out=str(tmp_path / "w8.csv"), workers=8)
        run_convergence(cfg1)
        run_convergence(cfg8)
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w8.csv").read_bytes()

    def test_plot_data_emitted(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_convergence(cfg)
        for method in ("mc", "sobol"):
            dat = (tmp_path / f"conv_{method}.dat").read_text().strip().splitlines()
            assert len(dat) == 3
            assert [int(line.split()[0]) for line in dat] == [64, 128, 256]
            assert all(float(line.split()[1]) >= 0.0 for line in dat)

    def test_csv_schema_fields(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, rows = run_convergence(cfg)
        header = rows[0].split(",")
        assert header == ["method", "M", "d", "replicates", "mean", "std_error",
                          "bias_bound", "seed", "wall_ms"]
        first = rows[1].split(",")
        assert first[2] == "4"  # d = 2n
        assert first[3] == "3"
        assert float(first[5]) >= 0.0
        assert first[7] == "7"
        assert first[8] == "0"  # timings off by default: reproducible bytes

    def test_timings_flag_populates_wall_ms(self, tmp_path):
        cfg = tiny_config(tmp_path, m_schedule=(64,), methods=("sobol",), timings=True)
        _, rows = run_convergence(cfg)
        assert int(rows[1].split(",")[8]) >= 0

    def test_start_above_the_barrier_is_a_lump_sum(self, tmp_path, loan_model):
        # as in run_value: the excess over b is paid at once, the rest is the
        # value at b with the same error bar
        b = loan_model.params.b
        _, at_b = run_convergence(tiny_config(tmp_path, x0=b))
        _, above = run_convergence(tiny_config(tmp_path, x0=b + 0.5))
        assert len(above) == len(at_b)
        for row_b, row in zip(at_b[1:], above[1:]):
            fields_b, fields = row_b.split(","), row.split(",")
            assert float(fields[4]) == float(fields_b[4]) + 0.5
            assert fields[:4] == fields_b[:4] and fields[5:] == fields_b[5:]

    def test_cli_start_above_the_barrier(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--x0", "5", "--method", "sobol", "--points", "64",
                     "--jumps", "1", "--replicates", "2", "--out", str(out)])
        assert code == 0 and "wrote" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 2


class TestRunPlan:
    """value, convergence and the epsilon study share one plan: every rule
    formed and every output path checked, then one build per smoothing width."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        real = harness.SmoothedLoanModel.build
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: calls.append(kw["eps"]) or real(**kw))
        return calls

    def test_one_build_per_run(self, tmp_path, builds):
        cfg = tiny_config(tmp_path, m_schedule=(16, 32, 64))
        run_value(cfg)
        assert builds == [cfg.eps]
        _, rows = run_convergence(cfg)
        assert len(rows) == 1 + 2 * 3 and builds == [cfg.eps] * 2

    def test_one_build_per_width(self, tmp_path, builds):
        cfg = tiny_config(tmp_path, m_schedule=(64,), replicates=2, mc_paths=200)
        run_epsilon_study(cfg, (0.08, 0.04, 0.02))
        assert builds == [0.08, 0.04, 0.02]

    def test_plot_data_paths_checked_before_the_build(self, tmp_path, monkeypatch, capsys):
        # a directory where a .dat file goes used to fail only after every
        # estimate, with the CSV already written
        builds = []
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: builds.append(kw) or pytest.fail("built"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "conv_sobol.dat").mkdir()
        code = main(["convergence", "--method", "sobol", "--points", "64", "--jumps", "1",
                     "--replicates", "2", "--out", "conv.csv"])
        assert code == 2
        assert "error: cannot write conv_sobol.dat" in capsys.readouterr().err
        assert builds == [] and not (tmp_path / "conv.csv").exists()


    @pytest.mark.parametrize("command, run", [
        ("convergence", run_convergence),
        ("epsilon-study", lambda cfg: run_epsilon_study(cfg, (0.08, 0.04))),
    ], ids=["convergence", "epsilon-study"])
    def test_an_empty_out_set_in_code_is_refused_before_the_build(self, tmp_path, monkeypatch,
                                                                  command, run):
        # run_value reads out="" as "no CSV"; the two subcommands that always
        # write one used to fail with "cannot write .: it is a directory"
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: pytest.fail("built"))
        monkeypatch.chdir(tmp_path)
        cfg = tiny_config(tmp_path, methods=("sobol",), replicates=2, out="")
        with pytest.raises(InputError, match=f"^{command} writes a CSV: 'out' must name a path"):
            run(cfg)
        assert list(tmp_path.iterdir()) == []


class TestRunEpsilonStudy:
    def test_structure(self, tmp_path):
        cfg = tiny_config(tmp_path, m_schedule=(2048,), replicates=4,
                          out=str(tmp_path / "eps.csv"), mc_paths=20_000)
        csv_path, rows, slope, flag = run_epsilon_study(cfg, (0.08, 0.04))
        assert rows[0] == EPS_CSV_HEADER
        assert len(rows) == 1 + 2 + 1
        assert rows[-1].startswith("slope,")
        assert flag in ("ok", "noise-dominated")
        assert Path(csv_path).exists()

    def test_schedule_must_decrease(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(InputError):
            run_epsilon_study(cfg, (0.01, 0.02))
        with pytest.raises(InputError):
            run_epsilon_study(cfg, ())

    def test_single_width_refused_before_any_build(self, tmp_path, monkeypatch):
        # a log-log slope needs at least two widths
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: pytest.fail("built"))
        with pytest.raises(InputError, match="at least two widths"):
            run_epsilon_study(tiny_config(tmp_path), [0.02])

    def test_widths_checked_before_any_build(self, tmp_path, monkeypatch):
        builds = []
        real_build = harness.SmoothedLoanModel.build
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: builds.append(kw["eps"]) or real_build(**kw))
        with pytest.raises(InputError, match="smoothing width"):
            run_epsilon_study(tiny_config(tmp_path), (0.08, 0.0))
        assert builds == []

    def test_start_above_the_barrier_fails_before_any_build(self, tmp_path, monkeypatch,
                                                             capsys):
        # the Monte Carlo reference refuses a start above b, so the study does
        builds = []
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: builds.append(kw) or pytest.fail("built"))
        code = main(["epsilon-study", "--x0", "5", "--points", "64", "--jumps", "1",
                     "--replicates", "2", "--out", str(tmp_path / "eps.csv")])
        assert code == 2
        assert builds == []
        assert "barrier" in capsys.readouterr().err
        assert not (tmp_path / "eps.csv").exists()
        with pytest.raises(InputError, match="barrier"):
            run_epsilon_study(tiny_config(tmp_path, x0=harness.LoanParams.b + 1e-9), (0.08, 0.04))
        assert builds == []

    @pytest.mark.parametrize("line", ["mc_paths = 0", "mc_paths = 1", "jumps = 0"])
    def test_bad_config_fails_before_any_build(self, tmp_path, monkeypatch, capsys, line):
        builds = []
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: builds.append(kw) or pytest.fail("built"))
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(line + "\n")
        code = main(["epsilon-study", "--config", str(cfg_file), "--points", "64",
                     "--replicates", "2", "--out", str(tmp_path / "eps.csv")])
        assert code == 2
        assert builds == []
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "eps.csv").exists()

    def test_noise_dominated_flagged(self, tmp_path):
        # minuscule budgets cannot resolve the eps=0.02 gap
        cfg = tiny_config(tmp_path, m_schedule=(64,), replicates=2,
                          out=str(tmp_path / "eps.csv"), mc_paths=200)
        _, rows, slope, flag = run_epsilon_study(cfg, (0.04, 0.02))
        assert flag == "noise-dominated"
        assert rows[-1].endswith("noise-dominated")

    def test_escalations_resume_one_reference(self, tmp_path, monkeypatch):
        # a 64-node study cannot resolve the gaps, so the reference escalates
        # twice; 8,192 paths fill whole chunks, which the escalations reuse
        calls = []
        real = harness.mc_reference

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "mc_reference", spy)
        cfg = tiny_config(tmp_path, m_schedule=(64,), replicates=2,
                          out=str(tmp_path / "eps.csv"), mc_paths=8192)
        _, rows, _, flag = run_epsilon_study(cfg, (0.04, 0.02))
        assert flag == "noise-dominated"
        assert [args[2] for args, _ in calls] == [8192, 32_768, 131_072]
        resume = calls[0][1]["resume"]
        assert all(kwargs["resume"] is resume for _, kwargs in calls)
        assert len(resume.sums) == 16
        fresh = real(replace(cfg, eps=0.02).loan_params(), cfg.x0, 131_072, seed=cfg.seed,
                     max_jumps=cfg.jumps)
        for row in rows[1:-1]:
            assert row.split(",")[4:6] == [f"{fresh.value:.17g}", f"{fresh.std_error:.17g}"]


class TestRunValidate:
    def test_clean_build_passes(self, capsys):
        assert run_validate() == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_broken_heaviside_caught(self, monkeypatch, capsys):
        # squaring keeps the step flat at both ends, so the model still
        # builds, but breaks its half value and its symmetry
        real = smoothing.heaviside
        monkeypatch.setattr(smoothing, "heaviside", lambda y: real(y) ** 2)
        assert run_validate() == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "measured=" in out

    def test_failed_build_reported_with_the_other_checks(self, monkeypatch, capsys):
        # the clipped-ramp square breaks the step and also stops the model
        # build (ModelError, frozen tail band): the checks that need no model
        # still print, the build is one FAIL line with its error, and the
        # checks that read the model are skipped
        monkeypatch.setattr(smoothing, "heaviside", lambda y: np.clip((y + 1) / 2, 0, 1) ** 2)
        assert run_validate() == 1
        lines = capsys.readouterr().out.splitlines()
        status = {line.split("  ")[1]: line for line in lines if line[:4] in ("PASS", "FAIL")}
        for name in ("heaviside endpoint/half values", "heaviside symmetry"):
            assert status[name].startswith("FAIL") and "measured=" in status[name]
        assert status["sobol initial segment"].startswith("PASS")
        for name in ("smoothed drift nonnegative", "kernel smoothing bound (ratio to 5/8*eps*n)",
                     "bias bound decreasing", "empty rule rejected"):
            assert name in status
        assert status["model build"].startswith("FAIL")
        assert "error: the reward rate varies" in status["model build"]
        assert "flow semigroup" not in status and "estimate within [0, C_V]" not in status
        assert any(line.startswith("skipped") for line in lines)


class TestCLI:
    def test_value_subcommand(self, tmp_path, capsys):
        out_csv = tmp_path / "value.csv"
        code = main(["value", "--method", "gauss", "--points", "8", "--jumps", "1",
                     "--x0", "0.0", "--seed", "3", "--out", str(out_csv)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "value=" in printed
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == CSV_HEADER and rows[1].startswith("gauss,8,2,1,")

    def test_value_writes_the_config_out(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        out_csv = tmp_path / "v.csv"
        cfg_file.write_text(f"methods = gauss\nm_schedule = 8\njumps = 1\nout = {out_csv}\n")
        assert main(["value", "--config", str(cfg_file)]) == 0
        assert "value=" in capsys.readouterr().out
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == CSV_HEADER and rows[1].startswith("gauss,8,2,1,")

    def test_value_without_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("methods = gauss\nm_schedule = 8\njumps = 1\n")
        assert main(["value", "--config", str(cfg_file)]) == 0
        assert "value=" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == [cfg_file]

    def test_convergence_subcommand_with_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        out_csv = tmp_path / "c.csv"
        cfg_file.write_text(
            "methods = sobol\nm_schedule = 64, 128\njumps = 2\nreplicates = 2\n"
            f"seed = 5\nout = {out_csv}\n"
        )
        assert main(["convergence", "--config", str(cfg_file)]) == 0
        rows = out_csv.read_text().strip().splitlines()
        assert len(rows) == 3 and rows[1].split(",")[7] == "5"

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out_csv = tmp_path / "e.csv"
        monkeypatch.setenv("PDMPVAL_SEED", "4242")
        code = main(["value", "--method", "gauss", "--points", "4", "--jumps", "1",
                     "--seed", "1", "--out", str(out_csv)])
        assert code == 0
        assert out_csv.read_text().strip().splitlines()[1].split(",")[7] == "4242"

    def test_error_exit_code(self, tmp_path, capsys):
        code = main(["convergence", "--config", str(tmp_path / "exp.cfg"),
                     "--method", "warp-drive"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_env_seed_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("PDMPVAL_SEED", "abc")
        assert main(["value", "--method", "gauss", "--points", "4", "--jumps", "1"]) == 2
        assert "PDMPVAL_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("config, flags, want", [
        ("methods = halton\n", [], "halton"),
        ("methods = mc, sobol\n", [], "mc"),
        ("", [], "sobol"),
        ("methods = halton\n", ["--method", "mc"], "mc"),
    ], ids=["config", "config-list", "default", "flag-over-config"])
    def test_value_uses_first_configured_method(self, tmp_path, config, flags, want):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(config)
        out_csv = tmp_path / "v.csv"
        code = main(["value", "--config", str(cfg_file), "--points", "64", "--jumps", "1",
                     "--replicates", "2", "--out", str(out_csv), *flags])
        assert code == 0
        assert out_csv.read_text().splitlines()[1].split(",")[0] == want

    @pytest.mark.parametrize("config, env, flags", [
        ("", None, ["--seed", "-1"]),
        ("", "-5", []),
        ("seed = -1\n", None, []),
    ], ids=["flag", "env", "config"])
    def test_negative_seed_exit_code(self, tmp_path, monkeypatch, capsys, config, env, flags):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(config)
        if env is not None:
            monkeypatch.setenv("PDMPVAL_SEED", env)
        for command in ("value", "convergence", "epsilon-study"):
            code = main([command, "--config", str(cfg_file), "--points", "64", "--jumps", "1",
                         "--out", str(tmp_path / "x.csv"), *flags])
            assert code == 2
            assert "error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_workers_exit_code(self, capsys):
        code = main(["value", "--method", "sobol", "--points", "64", "--jumps", "1",
                     "--workers", "-3"])
        assert code == 2
        assert "error: workers must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("eps, message", [
        ("1e-4", "frozen tail band"), ("1e-12", "frozen tail band"),
        ("1e-40", "float resolution"), ("1e-60", "float resolution"),
    ])
    def test_unresolved_smoothing_width_exit_code(self, capsys, eps, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["value", "--points", "64", "--jumps", "1", "--replicates", "2",
                         "--epsilon", eps])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err and "value=" not in captured.out

    def test_gauss_value_with_one_replicate(self, tmp_path, capsys):
        out_csv = tmp_path / "g.csv"
        code = main(["value", "--method", "gauss", "--points", "8", "--jumps", "1",
                     "--replicates", "1", "--out", str(out_csv)])
        assert code == 0
        assert "std_error=n/a" in capsys.readouterr().out
        assert out_csv.read_text().splitlines()[1].startswith("gauss,8,2,1,")
        code = main(["value", "--method", "sobol", "--points", "8", "--jumps", "1",
                     "--replicates", "1"])
        assert code == 2
        assert "replicates" in capsys.readouterr().err

    def test_epsilon_study_needs_two_replicates(self, tmp_path, capsys):
        code = main(["epsilon-study", "--method", "gauss", "--points", "64", "--jumps", "1",
                     "--replicates", "1", "--out", str(tmp_path / "e.csv")])
        assert code == 2
        assert "replicates" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("command", ["value", "convergence", "epsilon-study"])
    def test_empty_methods_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # "methods = ," parses to no methods: every subcommand stops before any build
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: pytest.fail("built"))
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("methods = ,\n")
        out_csv = tmp_path / "out.csv"
        code = main([command, "--config", str(cfg_file), "--points", "64", "--jumps", "1",
                     "--replicates", "2", "--out", str(out_csv)])
        assert code == 2
        assert "method list" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["value", "convergence", "epsilon-study"])
    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_repeated_methods_exit_code(self, tmp_path, monkeypatch, capsys, command, source):
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: pytest.fail("built"))
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("methods = sobol, sobol\n" if source == "config" else "")
        flags = ["--method", "gauss", "--method", "gauss"] if source == "flags" else []
        out_csv = tmp_path / "out.csv"
        code = main([command, "--config", str(cfg_file), *flags, "--points", "64",
                     "--jumps", "1", "--replicates", "2", "--out", str(out_csv)])
        assert code == 2
        assert "more than once" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["value", "convergence", "epsilon-study"])
    def test_repeated_config_key_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # the last value used to win without a word: n = 1 here, exit 0
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: pytest.fail("built"))
        cfg_file = tmp_path / "exp.cfg"
        out_csv = tmp_path / "out.csv"
        cfg_file.write_text(f"jumps = 4\nmethods = sobol\n# n\njumps = 1\nout = {out_csv}\n")
        code = main([command, "--config", str(cfg_file), "--points", "64",
                     "--replicates", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{cfg_file}:4: config key 'jumps' is already set on line 1" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["value", "convergence", "epsilon-study"])
    def test_undecodable_config_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # a byte that is not UTF-8 used to end in a UnicodeDecodeError traceback
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: pytest.fail("built"))
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_bytes(b"jumps = 1\n\xff\n")
        assert main([command, "--config", str(cfg_file)]) == 2
        assert f"cannot read config {cfg_file}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["value", "convergence", "epsilon-study"])
    def test_x0_below_ruin_level_exit_code(self, tmp_path, monkeypatch, capsys, command):
        builds = []
        real = harness.SmoothedLoanModel.build
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: builds.append(kw) or real(**kw))
        out_csv = tmp_path / "out.csv"
        code = main([command, "--x0", "-100", "--method", "sobol", "--points", "64",
                     "--jumps", "1", "--replicates", "2", "--out", str(out_csv)])
        assert code == 2
        assert "ruin level" in capsys.readouterr().err
        assert builds == [] and not out_csv.exists()

    def test_bad_config_value_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("c = five\n")
        assert main(["value", "--config", str(cfg_file)]) == 2
        assert "error: config key 'c'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, flags", [
        ("alpha = nan", []),
        ("c = inf", []),
        ("", ["--x0", "inf"]),
    ], ids=["alpha-nan", "c-inf", "x0-inf"])
    def test_non_finite_input_exit_code(self, tmp_path, capsys, line, flags):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(line + "\n")
        code = main(["value", "--config", str(cfg_file), "--method", "gauss",
                     "--points", "4", "--jumps", "1", *flags])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_epsilon_study_single_width_exit_code(self, tmp_path, monkeypatch, capsys):
        # one --epsilon is the whole schedule, not a cue for the default one
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: pytest.fail("built"))
        code = main(["epsilon-study", "--epsilon", "0.02", "--points", "64", "--jumps", "1",
                     "--replicates", "2", "--out", str(tmp_path / "eps.csv")])
        assert code == 2
        assert "at least two widths" in capsys.readouterr().err
        assert not (tmp_path / "eps.csv").exists()

    def test_validate_takes_no_flags(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_validate", lambda: calls.append(1) or 0)
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--points", "0", "--method", "bogus"])
        assert exc.value.code == 2 and calls == []
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["validate"]) == 0 and calls == [1]

    def test_epsilon_study_subcommand(self, tmp_path, capsys):
        out_csv = tmp_path / "eps.csv"
        code = main(["epsilon-study", "--method", "sobol", "--points", "1024",
                     "--jumps", "2", "--replicates", "3",
                     "--epsilon", "0.08", "--epsilon", "0.04",
                     "--seed", "2", "--out", str(out_csv)])
        assert code == 0
        rows = out_csv.read_text().strip().splitlines()
        assert rows[0] == EPS_CSV_HEADER and rows[-1].startswith("slope,")

    @pytest.mark.parametrize("command", ["value", "convergence", "epsilon-study"])
    def test_unwritable_out_exit_code(self, tmp_path, monkeypatch, capsys, command):
        # a regular file where the output's directory should be, and a
        # directory where the output should be: both found before any build
        builds = []
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: builds.append(kw) or pytest.fail("built"))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        folder = tmp_path / "folder"
        folder.mkdir()
        for out in (blocker / "x.csv", folder):
            code = main([command, "--points", "16", "--jumps", "1", "--replicates", "2",
                         "--out", str(out)])
            assert code == 2
            assert "cannot write" in capsys.readouterr().err
        assert builds == []
        assert blocker.read_text() == "" and not any(folder.iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "folder"]

    @pytest.mark.parametrize("argv, message", [
        (["value", "--method", "gauss", "--points", "100"], "Gauss rule size"),
        (["value", "--method", "gauss", "--points", "64", "--jumps", "4"],
         "Gauss product budget exceeded: 64^7"),
        (["value", "--method", "sobol", "--jumps", "600"], "Sobol dimension 1200"),
        (["epsilon-study", "--jumps", "600"], "Sobol dimension 1200"),
        (["convergence", "--method", "sobol", "--method", "gauss", "--points", "100"],
         "Gauss rule size"),
        (["convergence", "--method", "sobol", "--method", "gauss", "--points", "64",
          "--jumps", "4"], "Gauss product budget exceeded: 64^7"),
        (["convergence", "--method", "mc", "--method", "sobol", "--points", "16",
          "--jumps", "600"], "Sobol dimension 1200"),
    ], ids=["value-gauss-size", "value-gauss-budget", "value-sobol-dim", "epsilon-sobol-dim",
            "convergence-gauss-size", "convergence-gauss-budget", "convergence-sobol-dim"])
    def test_bad_rule_fails_before_any_build(self, tmp_path, monkeypatch, capsys, argv,
                                             message):
        builds = []
        monkeypatch.setattr(harness.SmoothedLoanModel, "build",
                            lambda **kw: builds.append(kw) or pytest.fail("built"))
        out_csv = tmp_path / "x.csv"
        code = main([*argv, "--replicates", "2", "--out", str(out_csv)])
        assert code == 2
        assert builds == []
        assert message in capsys.readouterr().err
        assert not out_csv.exists()
