"""In-memory spans and per-call aggregates, and the per-layer metrics built
from them.

The tracer replaces a module attribute (or a class method) with a wrapper,
so it instruments the program from outside. Every wrapped call updates an
aggregate keyed by (name, label): call count, total time and self time.
Calls not marked hot (the ones made at most a few hundred times per run)
also record a span (id, parent id, name, label, start, end). A layer is the
part of a name before its first dot; a call's self time is its duration
minus the time covered by its nearest nested calls of the same layer, so
``pipeline.ensure_qaoa`` self time excludes the nested ``ensure_partition``
but keeps the QAOA work it drives.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

KERNELS = ("block-surrogate", "global-kawasaki", "local-kawasaki")
MASK_KERNELS = ("block-surrogate", "global-kawasaki")
MASK_STOPS = (50, 1000)
QAOA_BLOCK_SIZES = (4, 8, 12, 13)


@dataclass
class Frame:
    name: str
    layer: str
    label: str
    start: float
    span_id: int | None
    nested_same_layer: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[Frame] = []
        self.stats: dict[tuple[str, str], list] = {}  # -> [count, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def call(self, name, fn, args, kwargs, label="", hot=False, on_result=None):
        span_id = None
        if not hot:
            span_id = len(self.spans)
            self.spans.append(None)  # filled in on exit, so ids follow call order
        frame = Frame(name, name.split(".", 1)[0], label, self.clock(), span_id)
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self.stack.pop()
            self._close(frame, end)
        if on_result is not None:
            on_result(self, result, args)
        return result

    def _close(self, frame: Frame, end: float) -> None:
        duration = end - frame.start
        for outer in reversed(self.stack):
            if outer.layer == frame.layer:
                outer.nested_same_layer += duration
                break
        entry = self.stats.setdefault((frame.name, frame.label), [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.nested_same_layer
        if frame.span_id is not None:
            parent = next((f.span_id for f in reversed(self.stack) if f.span_id is not None), None)
            self.spans[frame.span_id] = (frame.span_id, parent, frame.name, frame.label, frame.start, end)

    def wrap(self, owner, attr, name, label=None, hot=False, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; ``label(args)`` tags the call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = label(args) if label is not None else ""
            return self.call(name, fn, args, kwargs, label=tag, hot=hot, on_result=on_result)

        setattr(owner, attr, traced)

    def observe(self, owner, attr, hook) -> None:
        """Replace ``owner.attr`` by an untimed wrapper that passes the result
        to ``hook(tracer, result)`` while the caller's frame is on top."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, result)
            return result

        setattr(owner, attr, observed)

    def dump(self) -> dict:
        return {
            "stats": [[n, l, *v] for (n, l), v in sorted(self.stats.items())],
            "counters": dict(sorted(self.counters.items())),
            "spans": [s for s in self.spans if s is not None],
        }


class Stats:
    """Read access to a dumped tracer: sums over labels unless one is given."""

    def __init__(self, dump: dict | None):
        dump = dump or {"stats": [], "counters": {}}
        self.rows = dump["stats"]
        self.counters = dump["counters"]

    def _sum(self, col, name, label=None, prefix=False):
        return sum(
            r[col]
            for r in self.rows
            if (r[0].startswith(name) if prefix else r[0] == name) and (label is None or r[1] == label)
        )

    def count(self, name, label=None, prefix=False):
        return self._sum(2, name, label, prefix)

    def total(self, name, label=None, prefix=False):
        return self._sum(3, name, label, prefix)

    def self_time(self, name, label=None, prefix=False):
        return self._sum(4, name, label, prefix)

    def per_call(self, name, label=None, scale=1.0):
        n = self.count(name, label)
        return scale * self.total(name, label) / n if n else 0.0

    def counter(self, name):
        return self.counters.get(name, 0.0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(cold: dict, rerun: dict | None, result: dict | None, report: dict | None,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the traced cold run, the traced re-run (tau
    workloads), the pipeline's ``result.json`` and the mask ``report.json``.

    A metric of a layer the workload does not exercise reads 0.
    """
    c = Stats(cold)
    r = Stats(rerun)
    m = {}
    for stage in ("qaoa", "made", "mcmc", "analysis"):
        m[f"pipeline.{stage}_s"] = c.self_time(f"pipeline.ensure_{stage}")
    m["pipeline.ensure_calls"] = c.count("pipeline.ensure_", prefix=True)
    m["pipeline.cache_load_s"] = r.self_time("pipeline.ensure_", label="hit", prefix=True)

    m["qaoa.evals"] = c.count("qaoa.qaoa_state")
    for size in QAOA_BLOCK_SIZES:
        m[f"qaoa.state_ms.b{size}"] = c.per_call("qaoa.qaoa_state", f"b{size}", scale=1e3)
    m["qaoa.optimize_s"] = c.total("qaoa.optimize_params")
    m["qaoa.training_set_s"] = c.total("qaoa.generate_training_set")
    m["qaoa.loss_sum"] = c.counter("qaoa.loss_sum")

    m["made.epoch_s"] = _ratio(c.total("made.train"), c.counter("made.epochs"))
    m["made.train_ll"] = _ratio(c.counter("made.final_train_ll_sum"), c.count("made.train"))
    m["made.sample_us"] = c.per_call("made.sample", scale=1e6)
    m["made.log_prob_us"] = c.per_call("made.log_prob", scale=1e6)

    taus = (result or {}).get("kernels", {})
    for kernel in KERNELS:
        steps = c.counter(f"mcmc.steps.{kernel}")
        step_us = _ratio(1e6 * c.total("mcmc.run_chain", kernel), steps)
        tau = taus.get(kernel, {}).get("tau") or 0.0
        m[f"mcmc.step_us.{kernel}"] = step_us
        m[f"mcmc.moved_frac.{kernel}"] = _ratio(c.counter(f"mcmc.moved.{kernel}"), steps)
        m[f"mcmc.accepted_frac.{kernel}"] = _ratio(c.counter(f"mcmc.accepted.{kernel}"), steps)
        m[f"mcmc.decorr_per_s.{kernel}"] = _ratio(tau * 1e6, step_us)
        m[f"analysis.tau.{kernel}"] = tau
    m["mcmc.mismatch_frac.block-surrogate"] = _ratio(
        c.counter("mcmc.mismatch.block-surrogate"), c.counter("mcmc.steps.block-surrogate")
    )
    m["qubo.delta_swap_us"] = c.per_call("qubo.energy_delta_swap", scale=1e6)
    m["qubo.delta_block_us"] = c.per_call("qubo.energy_delta_block", scale=1e6)

    m["features.mi_s"] = c.total("features.build_mi_table")
    m["features.evaluate_s"] = c.per_call("features.evaluate_mask")
    m["features.evaluate_calls"] = c.count("features.evaluate_mask")
    m["idx.load_s"] = c.total("idx.load_idx")
    kernels = (report or {}).get("kernels", {})
    for kernel in MASK_KERNELS:
        stops = kernels.get(kernel, {}).get("stops", {})
        final = stops.get(str(MASK_STOPS[-1]), {}).get("best_energy") or [0.0]
        m[f"mnistexp.best_energy.{kernel}"] = sum(final) / len(final)
        for stop in MASK_STOPS:
            m[f"mnistexp.acc.{kernel}.{stop}"] = stops.get(str(stop), {}).get("accuracy_mean", 0.0)
    m["trace.overhead_s"] = overhead_s
    return {k: float(v) for k, v in m.items()}


def stage_split(cold: dict) -> dict[str, float]:
    """Inclusive seconds of each layer's top-level work in the traced cold run."""
    c = Stats(cold)
    return {
        "qaoa": c.total("qaoa.optimize_params") + c.total("qaoa.generate_training_set"),
        "made": c.total("made.train"),
        "mcmc": c.total("mcmc.run_chain"),
        "analysis": c.self_time("pipeline.ensure_analysis"),
        "features": c.total("features.build_mi_table") + c.total("features.evaluate_mask"),
    }


PER_LAYER_UNITS = {
    **{f"pipeline.{s}_s": "s" for s in ("qaoa", "made", "mcmc", "analysis")},
    "pipeline.ensure_calls": "count",
    "pipeline.cache_load_s": "s",
    "qaoa.evals": "count",
    **{f"qaoa.state_ms.b{b}": "ms" for b in QAOA_BLOCK_SIZES},
    "qaoa.optimize_s": "s",
    "qaoa.training_set_s": "s",
    "qaoa.loss_sum": "energy",
    "made.epoch_s": "s",
    "made.train_ll": "nats/block",
    "made.sample_us": "us",
    "made.log_prob_us": "us",
    **{f"mcmc.step_us.{k}": "us" for k in KERNELS},
    **{f"mcmc.moved_frac.{k}": "ratio" for k in KERNELS},
    **{f"mcmc.accepted_frac.{k}": "ratio" for k in KERNELS},
    "mcmc.mismatch_frac.block-surrogate": "ratio",
    **{f"mcmc.decorr_per_s.{k}": "1/s" for k in KERNELS},
    "qubo.delta_swap_us": "us",
    "qubo.delta_block_us": "us",
    **{f"analysis.tau.{k}": "1/step" for k in KERNELS},
    "features.mi_s": "s",
    "features.evaluate_s": "s",
    "features.evaluate_calls": "count",
    "idx.load_s": "s",
    **{f"mnistexp.best_energy.{k}": "energy" for k in MASK_KERNELS},
    **{f"mnistexp.acc.{k}.{s}": "ratio" for k in MASK_KERNELS for s in MASK_STOPS},
    "trace.overhead_s": "s",
}
