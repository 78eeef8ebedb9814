"""The benchmark's tracer finds every layer boundary it wraps.

``bench/tracing.py`` wraps package functions and methods by name.  Renaming
or deleting one of them breaks a traced benchmark run; this test makes it
break here first.  The tracer is loaded by path and installed on the live
modules, then uninstalled, and every original object must be back.
"""

import importlib.util
from pathlib import Path

import pytest

from pdmpval import harness, mc
from pdmpval.harness import ExperimentConfig
from pdmpval.loan import LoanParams
from test_mc import _simulate_chunk_oracle

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("pdmpval_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_is_wrapped_and_restored(loan_model):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    boundaries = tracing._boundaries(tracer)
    assert len(boundaries) == 16
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in boundaries]
    saved = tracing.install(tracer)
    try:
        assert len(saved) == len(originals)
        for owner, attr, raw in originals:
            assert vars(owner)[attr] is not raw, f"{attr} was not wrapped"
        loan_model.table.time_of(0.0)  # a wrapped method records its span
        assert [span[0] for span in tracer.spans] == ["flow.time_of"]
    finally:
        tracing.uninstall(saved)
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, f"{attr} was not restored"


def _traced(call):
    """Run ``call`` with the tracer installed; returns the tracer."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        call()
    finally:
        tracing.uninstall(saved)
    return tracer


def test_value_above_the_barrier_records_one_estimate_span(tmp_path):
    # the lump sum above b is priced inside the one estimate_value call: a
    # nested call would record two spans and double the traced node stages
    cfg = ExperimentConfig(x0=LoanParams.b + 0.5, methods=("sobol",), m_schedule=(64,),
                           jumps=1, replicates=2, out=str(tmp_path / "value.csv"))
    spans = _traced(lambda: harness.run_value(cfg, "sobol")).spans
    est = [s for s in spans if s[0] == "operators.estimate_value"]
    assert len(est) == 1
    assert est[0][3] == -1  # no enclosing estimate span
    assert est[0][5] == 64 * 2 * 1  # node stages, read from the positional (x0, n, rule)


def test_epsilon_study_call_contract(tmp_path):
    # the benchmark's eps-refine shims replace harness.estimate_value and
    # harness.mc_reference and read the path count as args[2]
    cfg = ExperimentConfig(methods=("sobol",), m_schedule=(64,), jumps=1, replicates=2,
                           mc_paths=200, out=str(tmp_path / "eps.csv"))
    spans = _traced(lambda: harness.run_epsilon_study(cfg, (0.08, 0.04))).spans
    study = [i for i, s in enumerate(spans) if s[0] == "harness.run_epsilon_study"]
    assert len(study) == 1
    est = [s for s in spans if s[0] == "operators.estimate_value"]
    assert len(est) == 2 and all(s[3] == study[0] for s in est)
    refs = [s for s in spans if s[0] == "mc.mc_reference"]
    assert 1 <= len(refs) <= 3 and all(s[3] == study[0] for s in refs)
    # path_jumps reads n_paths = args[2]: 200 paths, then x4 per escalation, 1 jump
    assert [s[5] for s in refs] == [200 * 4 ** k for k in range(len(refs))]


@pytest.mark.parametrize("x0", [0.0, -90.0])
def test_monte_carlo_chunk_contract(x0):
    # chunk_jumps reads rows = args[2] and max_jumps = args[5] of the
    # positional chunk call, and each path's jumps from out[1]; from -90
    # paths are ruined, so fewer jumps are live than attempted
    tracer = _traced(lambda: mc.mc_reference(LoanParams(), x0, 16_384, seed=7, max_jumps=64))
    ref = [i for i, s in enumerate(tracer.spans) if s[0] == "mc.mc_reference"]
    chunks = [s for s in tracer.spans if s[0] == "mc.simulate_chunk"]
    assert len(ref) == 1 and len(chunks) == 2 and all(s[3] == ref[0] for s in chunks)
    assert tracer.counts["mc.attempted_jumps"] == 2 * 8192 * 64
    live = sum(int(_simulate_chunk_oracle(LoanParams(), x0, 8192, 7, chunk, 64)[1].sum())
               for chunk in (0, 1))
    assert tracer.counts["mc.live_jumps"] == live
