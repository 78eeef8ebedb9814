"""In-memory span recorder attached to pdmpval's layer boundaries from outside.

``install`` replaces the public entry points of each layer (and the Monte
Carlo chunk simulator, whose jump counts it reads) with wrappers that record
one span per call: name, start, end, parent span, run id and a work count.
Nothing inside the package changes; ``uninstall`` puts the originals back.
Spans stay in memory until ``write`` dumps them at exit, and
``layer_metrics`` derives the per-layer numbers, self times included, from
them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

COLUMN_SPANS = {"sobol": "cubature.sobol_column", "halton": "cubature.halton_column",
                "mc": "cubature.mc_chunk"}
LOOKUP_SPANS = ("flow.time_of", "flow.pos_at", "flow.reward_from_master")


class Tracer:
    """Span list for one benchmark process; single-threaded use only."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, run id, work]
        self.counts = defaultdict(float)
        self.run_id = "setup"
        self._stack = []

    def call(self, name, fn, args, kwargs, work):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.run_id, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        rec[5] = float(work(args, kwargs, out)) if work else 0.0
        return out

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run_id", "work")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def _boundaries(tracer):
    """(span name, owner, attribute, work count) for every wrapped call."""
    from pdmpval import flow, harness, loan, mc, model, operators

    counts = tracer.counts

    def points(args, kwargs, out):
        return np.size(out)

    def column(args, kwargs, out):
        if args[0] == 1:  # the first coordinate opens every node chunk
            counts["operators.chunks"] += 1
        return np.size(out)

    def mc_block(args, kwargs, out):
        counts["operators.chunks"] += 1
        return np.size(out)

    def node_stages(args, kwargs, out):
        x0, n, rule = args[:3]
        return rule.M * rule.replicates * n

    def path_jumps(args, kwargs, out):
        n_paths = args[2]
        max_jumps = kwargs.get("max_jumps", args[4] if len(args) > 4 else 512)
        counts["mc.paths"] += n_paths
        return n_paths * max_jumps

    def chunk_jumps(args, kwargs, out):
        counts["mc.attempted_jumps"] += args[2] * args[5]
        counts["mc.live_jumps"] += int(out[1].sum())
        return args[2] * args[5]

    def drift_points(args, kwargs, out):
        return np.size(args[0])

    def grid_nodes(args, kwargs, out):
        return out.grid_t.size

    return [
        ("flow.time_of", flow.FlowTable, "time_of", points),
        ("flow.pos_at", flow.FlowTable, "pos_at", points),
        ("flow.reward_from_master", flow.FlowTable, "reward_from_master", points),
        ("flow.build", loan, "build_flow_table", grid_nodes),
        ("smoothing.drift", loan, "smoothed_drift_loan", drift_points),
        ("model.validate", model.ModelSpec, "validate", None),
        ("loan.build", loan.SmoothedLoanModel, "build", None),
        ("cubature.sobol_column", operators, "sobol_column", column),
        ("cubature.halton_column", operators, "halton_column", column),
        ("cubature.mc_chunk", operators, "mc_chunk", mc_block),
        ("operators.estimate_value", operators, "estimate_value", node_stages),
        ("operators.estimate_value", harness, "estimate_value", node_stages),
        ("mc.mc_reference", mc, "mc_reference", path_jumps),
        ("mc.mc_reference", harness, "mc_reference", path_jumps),
        ("mc.simulate_chunk", mc, "_simulate_chunk", chunk_jumps),
        ("harness.run_epsilon_study", harness, "run_epsilon_study", None),
    ]


def install(tracer):
    """Wrap every layer boundary; returns what ``uninstall`` needs."""
    saved = []
    for name, owner, attr, work in _boundaries(tracer):
        raw = vars(owner)[attr]
        target = getattr(owner, attr)  # bound for classmethods, plain otherwise

        def wrapper(*args, _name=name, _fn=target, _work=work, **kwargs):
            return tracer.call(_name, _fn, args, kwargs, _work)

        functools.update_wrapper(wrapper, target)
        setattr(owner, attr, staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        saved.append((owner, attr, raw))
    return saved


def uninstall(saved) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


def layer_metrics(tracer, traced_passes: int) -> dict:
    """Per-layer numbers from the recorded spans (setup run and traced passes).

    Times are totals over all spans of a name divided by their work, or per
    call where a layer has no natural unit of work; self time is a span's
    duration minus the durations of its direct children.
    """
    total = defaultdict(float)
    work = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for name, start, end, parent, _run, w in tracer.spans:
        total[name] += end - start
        work[name] += w
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time = defaultdict(float)
    for i, (name, start, end, *_rest) in enumerate(tracer.spans):
        self_time[name] += end - start - child[i]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    counts = tracer.counts
    builds = calls["flow.build"]
    est_s = total["operators.estimate_value"]
    stages = work["operators.estimate_value"]
    studies = calls["harness.run_epsilon_study"]
    lookup_s = sum(total[n] for n in LOOKUP_SPANS)
    column_s = sum(total[n] for n in COLUMN_SPANS.values())
    out = {
        "flow.build_s": ratio(total["flow.build"], builds),
        "flow.grid_nodes": ratio(work["flow.build"], builds),
        "smoothing.drift_calls": ratio(calls["smoothing.drift"], builds),
        "smoothing.drift_pts_per_call": ratio(work["smoothing.drift"], calls["smoothing.drift"]),
        "smoothing.drift_s": ratio(total["smoothing.drift"], builds),
        "model.validate_s": ratio(total["model.validate"], calls["model.validate"]),
        "loan.build_s": ratio(total["loan.build"], calls["loan.build"]),
        "flow.time_of_us_per_pt": ratio(total["flow.time_of"], work["flow.time_of"], 1e6),
        "flow.pos_at_us_per_pt": ratio(total["flow.pos_at"], work["flow.pos_at"], 1e6),
        "flow.reward_us_per_pt": ratio(total["flow.reward_from_master"],
                                       work["flow.reward_from_master"], 1e6),
        "flow.lookup_share": ratio(lookup_s, est_s),
        "cubature.share": ratio(column_s, est_s),
        "operators.us_per_node_stage": ratio(est_s, stages, 1e6),
        "operators.self_us_per_node_stage": ratio(self_time["operators.estimate_value"],
                                                  stages, 1e6),
        "operators.chunks": ratio(counts["operators.chunks"], traced_passes),
        "mc.ns_per_path_jump": ratio(total["mc.mc_reference"], work["mc.mc_reference"], 1e9),
        "mc.live_path_jump_ratio": ratio(counts["mc.live_jumps"], counts["mc.attempted_jumps"]),
        "mc.paths": ratio(counts["mc.paths"], traced_passes),
        "harness.self_s": ratio(self_time["harness.run_epsilon_study"], studies),
        "harness.mc_escalations": ratio(
            sum(1 for s in tracer.spans
                if s[0] == "mc.mc_reference" and s[3] >= 0
                and tracer.spans[s[3]][0] == "harness.run_epsilon_study") - studies,
            studies),
    }
    for kind, name in COLUMN_SPANS.items():
        out[f"cubature.col_ns_per_node_dim.{kind}"] = ratio(total[name], work[name], 1e9)
    return out
