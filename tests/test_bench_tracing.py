"""The benchmark's tracer finds every layer boundary it wraps.

``bench/tracing.py`` wraps package functions and methods by name.  Renaming
or deleting one of them breaks a traced benchmark run; this test makes it
break here first.  The tracer is loaded by path and installed on the live
modules, then uninstalled, and every original object must be back.
"""

import importlib.util
from pathlib import Path

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
