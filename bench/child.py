"""One workload run in a fresh process: ``child.py SPEC OUT RESULT [--trace]``.

Imports ``blockmc``, builds the config from the spec written by
``workloads.make_spec``, optionally installs the tracer, runs the pipeline
(or the mask search) into OUT and writes RESULT as JSON:

``libs`` and ``ready`` (CLOCK_MONOTONIC once numpy and scipy are imported,
and once set-up has finished), ``run_s``, ``rss_mb``, ``error`` (null on
success) and, with ``--trace``, the tracer dump.
A failure of the program is reported in RESULT, not raised.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def install(tracer) -> None:
    """Wrap the public functions of each layer as their callers look them up."""
    import numpy as np

    from blockmc import made, mcmc, mnistexp, pipeline, qaoa

    def on_hit(tr, hit):
        if tr.stack and tr.stack[-1].name.startswith("pipeline.ensure_"):
            tr.stack[-1].label = "hit" if hit else "miss"

    def on_loss(tr, result, args):
        tr.add("qaoa.loss_sum", result[1])

    def on_train(tr, report, args):
        tr.add("made.epochs", len(report.train_ll))
        tr.add("made.final_train_ll_sum", report.train_ll[-1])

    def on_chain(tr, trace, args):
        kind = trace.kind
        moved = np.any(trace.configs[1:] != trace.configs[:-1], axis=1) if trace.thin == 1 else []
        tr.add(f"mcmc.steps.{kind}", trace.steps)
        tr.add(f"mcmc.moved.{kind}", int(np.count_nonzero(moved)))
        tr.add(f"mcmc.accepted.{kind}", int(np.count_nonzero(trace.accepted)))
        # weight-mismatched surrogate draws are the only steps recorded with
        # acceptance probability exactly 0
        tr.add(f"mcmc.mismatch.{kind}", int(np.count_nonzero(trace.acceptance_probs == 0.0)))

    for stage in ("instance", "partition", "qaoa", "made", "mcmc", "analysis"):
        tracer.wrap(pipeline.PipelineRun, f"ensure_{stage}", f"pipeline.ensure_{stage}")
    tracer.observe(pipeline.PipelineRun, "_cached", on_hit)
    tracer.wrap(qaoa, "qaoa_state", "qaoa.qaoa_state", label=lambda a: f"b{a[0].size}")
    tracer.wrap(qaoa, "optimize_params", "qaoa.optimize_params", on_result=on_loss)
    tracer.wrap(qaoa, "generate_training_set", "qaoa.generate_training_set")
    tracer.wrap(made, "train", "made.train", on_result=on_train)
    tracer.wrap(made.ConditionalMadeModel, "sample", "made.sample", hot=True)
    tracer.wrap(made.ConditionalMadeModel, "log_prob", "made.log_prob", hot=True)
    tracer.wrap(mcmc, "run_chain", "mcmc.run_chain", label=lambda a: a[2].kind, on_result=on_chain)
    tracer.wrap(mcmc, "energy_delta_swap", "qubo.energy_delta_swap", hot=True)
    tracer.wrap(mcmc, "energy_delta_block", "qubo.energy_delta_block", hot=True)
    tracer.wrap(pipeline, "analyze_traces", "analysis.analyze_traces")
    tracer.wrap(mnistexp, "load_datasets", "mnistexp.load_datasets")
    tracer.wrap(mnistexp, "load_idx", "idx.load_idx")
    tracer.wrap(mnistexp, "build_mi_table", "features.build_mi_table")
    tracer.wrap(mnistexp, "evaluate_mask", "features.evaluate_mask")


def main(argv: list[str]) -> int:
    spec_path, out, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    doc = {"libs": None, "ready": None, "run_s": None, "rss_mb": None, "error": None}
    try:
        # numpy and scipy load first, so their import time is a measure of the
        # host's speed that no change to blockmc can move
        import numpy  # noqa: F401
        import scipy.optimize  # noqa: F401
        import scipy.sparse  # noqa: F401

        doc["libs"] = time.monotonic()
        from blockmc import mnistexp, pipeline

        with open(spec_path) as f:
            spec = json.load(f)
        if spec["kind"] == "pipeline":
            cfg = pipeline.config_from_dict(spec["config"])
            run = lambda: pipeline.PipelineRun(cfg, out).run()  # noqa: E731
        else:
            cfg = mnistexp.mnist_config_from_dict(spec["config"])
            run = lambda: mnistexp.run_mask_search(cfg, out)  # noqa: E731
        doc["ready"] = time.monotonic()
        tracer = None
        if traced:
            from tracing import Tracer

            tracer = Tracer()
            install(tracer)
        t0 = time.perf_counter()
        run()
        doc["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            doc["trace"] = tracer.dump()
    except Exception as exc:  # reported to the benchmark as a failed operation
        doc["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as f:
        json.dump(doc, f)
    return 0 if doc["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
