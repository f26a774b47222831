"""Benchmark for blockmc: cold and cached pipeline walls, and per-layer costs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload, untraced then traced

Each workload run happens in a fresh child process (``child.py``) with
``workers=1`` and one BLAS thread, against the ``blockmc`` sources in
``src/`` next to this directory. Repetitions of (cold run, re-runs over the
same directory) go on for about ``--seconds``; medians over them are
reported, with the times rescaled to a reference host speed (see
LIBS_REF_S). With ``--trace 1`` each repetition is an untraced cold run, a
traced cold run and, for the pipeline workloads, a traced re-run; the
per-layer metrics come from the traced children and the tracing overhead is
the traced minus the untraced run time.

Every child run and every output check counts as one operation; a failed
one is recorded with its error instead of stopping the benchmark. The last
line of standard output is the JSON result; the full record, with the run
metadata and every sample, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# One BLAS thread on both sides of every comparison: OpenBLAS would otherwise
# spread the |B|=8 dense matvec over every core and couple QAOA timings to
# the machine's other load.
BLAS_THREADS = "1"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS}

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_BUDGET_S = 170.0  # a run must end within 180 s
RERUNS = 2  # cached re-runs per repetition on the tau workloads

# The host's speed drifts by 20-40 % over minutes with the load of its other
# tenants (CPU time tracks wall time, so it is not steal), which no number of
# repetitions averages away. Every child times its import of numpy and scipy
# before it touches blockmc; the end-to-end times of a run are multiplied by
# LIBS_REF_S over the run's median of those import times, i.e. reported at the
# host speed where that import takes LIBS_REF_S (a quiet phase of the 2-core
# box the benchmark was built on).
LIBS_REF_S = 0.5
SCALED = ("wall_s", "rerun_s", "setup_s")

E2E_UNITS = {
    "wall_s": "s",
    "rerun_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}


def import_program():
    """Import blockmc from ``src/`` beside the benchmark, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import blockmc
    except ImportError as exc:
        raise SystemExit(f"error: cannot import blockmc from {SRC}: {exc}") from exc
    if Path(blockmc.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: blockmc imported from {blockmc.__file__}, not from {SRC}")


class Ledger:
    """Operations attempted and failed, with the error of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")
        return ok


def run_metadata() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def dir_digest(out: Path) -> tuple[str, int]:
    """sha256 over (relative path, content hash) of every file, and total bytes."""
    h = hashlib.sha256()
    size = 0
    for p in sorted(out.rglob("*")):
        if p.is_file():
            data = p.read_bytes()
            size += len(data)
            h.update(str(p.relative_to(out)).encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), size


class Runner:
    """Spawns child runs of one workload; each returns its result dict with
    ``wall_s`` and ``setup_s`` measured from just before the spawn."""

    def __init__(self, wdir: Path, spec_path: Path, deadline: float):
        self.wdir = wdir
        self.spec_path = spec_path
        self.deadline = deadline

    def child(self, out: Path, tag: str, traced: bool = False) -> dict:
        result = self.wdir / f"{tag}.json"
        log = self.wdir / f"{tag}.log"
        cmd = [sys.executable, str(BENCH / "child.py"), str(self.spec_path), str(out), str(result)]
        env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
        t0 = time.monotonic()
        with open(log, "w") as f:
            proc = subprocess.Popen(cmd + (["--trace"] if traced else []), env=env, cwd=ROOT,
                                    stdout=f, stderr=subprocess.STDOUT)
            # a blocking wait returns as soon as the child exits; wait(timeout)
            # would poll and add up to 50 ms to every measured wall time
            killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            killer.start()
            proc.wait()
            wall = time.monotonic() - t0
            killer.cancel()
        doc = {"libs": None, "ready": None, "error": f"exit code {proc.returncode} without a result"}
        if result.is_file():
            with open(result) as f:
                doc = json.load(f)
        doc["wall_s"] = wall
        doc["setup_s"] = doc["ready"] - t0 if doc["ready"] is not None else None
        doc["libs_s"] = doc["libs"] - t0 if doc["libs"] is not None else None
        doc["log"] = str(log)
        return doc


def check_outputs(ledger: Ledger, kind: str, spec: dict, out: Path, tag: str):
    """Program-level checks; returns (result.json, report.json) docs or None."""
    if kind == "pipeline":
        path = out / "analysis" / "result.json"
        result = json.loads(path.read_text()) if path.is_file() else {"kernels": {}}
        kernels = spec["config"]["mcmc"]["kernels"]
        bad = [k for k in kernels if not _finite(result["kernels"].get(k, {}).get("tau"))]
        ledger.check(f"{tag}: every kernel has a finite tau", not bad, f"no finite tau for {bad}")
        return result, None
    path = out / "report.json"
    report = json.loads(path.read_text()) if path.is_file() else {"kernels": {}}
    cfg = spec["config"]
    missing = []
    for kernel in cfg["kernels"]:
        stops = report["kernels"].get(kernel, {}).get("stops", {})
        for stop in cfg["stop_steps"]:
            entry = stops.get(str(stop), {})
            if len(entry.get("accuracy", [])) != cfg["repeats"] or not _finite(entry.get("accuracy_mean")):
                missing.append(f"{kernel}@{stop}")
    ledger.check(f"{tag}: mask report has every kernel and stop", not missing, f"missing {missing}")
    return None, report


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def all_stages_cached(log_path: str) -> bool:
    stage_lines = [ln for ln in Path(log_path).read_text().splitlines() if ln.startswith("stage ")]
    return bool(stage_lines) and all(ln.endswith(": cached") for ln in stage_lines)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload for about ``seconds``; returns the full record."""
    from tracing import PER_LAYER_UNITS, layer_metrics, stage_split
    from workloads import make_spec

    start = time.monotonic()
    meta = run_metadata()
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    spec = make_spec(workload, seed, wdir / "data")
    spec_path = wdir / "spec.json"
    spec_path.write_text(json.dumps(spec, sort_keys=True))
    kind = spec["kind"]
    runner = Runner(wdir, spec_path, deadline=start + RUN_BUDGET_S)
    ledger = Ledger()
    samples = defaultdict(list)
    layers = defaultdict(list)
    splits = []
    reference = None  # digest of the first cold run
    rep = 0
    while True:
        t_rep = time.monotonic()
        out = wdir / f"out{rep}"
        cold = runner.child(out, f"cold{rep}")
        ok = ledger.check(f"cold run {rep}", cold["error"] is None, cold["error"] or "")
        digest, size = dir_digest(out)
        samples["wall_s"].append(cold["wall_s"])
        samples["setup_s"].append(cold["setup_s"])
        samples["libs_s"].append(cold["libs_s"])
        samples["peak_rss_mb"].append(cold["rss_mb"])
        samples["artifact_mb"].append(size / 1e6)
        result = report = None
        if ok:
            result, report = check_outputs(ledger, kind, spec, out, f"cold run {rep}")
            if reference is None:
                reference = digest
            else:
                ledger.check(f"cold run {rep}: same seed gives the same digest",
                             digest == reference, f"{digest[:12]} != {reference[:12]}")
        rerun_dir, tcold = out, None
        if traced:
            rerun_dir = wdir / f"traced{rep}"
            tcold = runner.child(rerun_dir, f"traced_cold{rep}", traced=True)
            if ledger.check(f"traced cold run {rep}", tcold["error"] is None, tcold["error"] or ""):
                tdigest, _ = dir_digest(rerun_dir)
                if ok:
                    ledger.check(f"traced cold run {rep}: digest equals the untraced one",
                                 tdigest == digest, f"{tdigest[:12]} != {digest[:12]}")
            else:
                tcold = None
        # A cached re-run is cheap and noisy, so the tau workloads take several
        # samples of it; the mask search has no stage cache, so its re-run
        # recomputes everything and runs once.
        reruns = (1 if kind == "pipeline" else 0) if traced else (RERUNS if kind == "pipeline" else 1)
        rerun = None
        for i in range(reruns):
            tag = f"re-run {rep}.{i}"
            before, _ = dir_digest(rerun_dir)
            rerun = runner.child(rerun_dir, f"rerun{rep}_{i}", traced=traced)
            samples["rerun_s"].append(rerun["wall_s"])
            samples["setup_s"].append(rerun["setup_s"])
            samples["libs_s"].append(rerun["libs_s"])
            if ledger.check(tag, rerun["error"] is None, rerun["error"] or ""):
                after, _ = dir_digest(rerun_dir)
                ledger.check(f"{tag}: output unchanged", after == before, f"{after[:12]} != {before[:12]}")
                if kind == "pipeline":
                    ledger.check(f"{tag}: every stage cached", all_stages_cached(rerun["log"]),
                                 f"see {rerun['log']}")
            else:
                rerun = None
        if ok and tcold is not None:
            overhead = tcold["run_s"] - cold["run_s"]
            rerun_trace = rerun["trace"] if rerun is not None else None
            for name, value in layer_metrics(tcold["trace"], rerun_trace, result, report, overhead).items():
                layers[name].append(value)
            splits.append(stage_split(tcold["trace"]))
        if rep > 0:
            shutil.rmtree(wdir / f"out{rep - 1}", ignore_errors=True)
            shutil.rmtree(wdir / f"traced{rep - 1}", ignore_errors=True)
        rep += 1
        # another repetition only if it should end within half a repetition
        # of the window, so a run lasts about ``seconds`` whatever the rep size
        now = time.monotonic()
        if now + (now - t_rep) / 2 > start + seconds:
            break

    libs = _median(samples["libs_s"])
    scale = LIBS_REF_S / libs if libs else 1.0
    if traced:
        metrics = {name: (_median(layers.get(name, [])), unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: (_median(samples[name]), unit) for name, unit in E2E_UNITS.items()}
        for name in SCALED:
            value, unit = metrics[name]
            metrics[name] = (value and value * scale, unit)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "reps": rep,
        "elapsed_s": time.monotonic() - start,
        "meta": meta,
        "samples": dict(samples),
        "scale": scale,
        "stage_split": splits,
        "failures": ledger.failures,
        "result": {
            "correct": not ledger.failures,
            "attempted": ledger.attempted,
            "failed": len(ledger.failures),
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items() if v is not None},
        },
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def print_record(rec: dict) -> None:
    res = rec["result"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
          f"{rec['reps']} repetitions in {rec['elapsed_s']:.1f} s, time scale {rec['scale']:.4f}")
    print("meta " + json.dumps(rec["meta"], sort_keys=True))
    for name, m in res["metrics"].items():
        spread = ""
        values = [v for v in rec["samples"].get(name, []) if v is not None]
        if values:
            spread = f"  (n={len(values)}" + (f", unscaled median {_median(values):.4g})" if name in SCALED else ")")
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}{spread}")
    if rec["stage_split"]:
        split = {k: statistics.median(s[k] for s in rec["stage_split"]) for k in rec["stage_split"][0]}
        total = sum(split.values()) or 1.0
        print("  stage split of the traced cold runs (medians): " + ", ".join(
            f"{k} {v:.2f} s ({100 * v / total:.0f}%)" for k, v in split.items() if v))
    print(f"  operations: {res['attempted']} attempted, {res['failed']} failed")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")


def save_record(rec: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{rec['workload']}_seed{rec['seed']}_trace{rec['trace']}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them, untraced then traced, if omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads in this process too
    import_program()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    runs = ([(args.workload, bool(args.trace))] if args.workload
            else [(w, t) for w in WORKLOADS for t in (False, True)])
    records = []
    for workload, traced in runs:
        rec = measure(workload, args.seed, args.seconds, traced)
        save_record(rec)
        print_record(rec)
        records.append(rec)
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{n}": m for r in records for n, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
