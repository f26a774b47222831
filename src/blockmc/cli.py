"""Command-line interface.

Four commands: ``pipeline`` runs the tau experiment through the stages of
``pipeline.STAGES`` and prints the summary of the last it runs; ``--until
STAGE`` stops it after that stage, and the stages before it come from the
cache of ``--out`` when their keys are unchanged. ``sweep-n`` and
``sweep-b`` run it along one axis of ``pipeline.SWEEP_AXES``, and ``mnist``
runs the feature-selection experiment, itself one cached stage. Exit codes:
0 success, 2 config error, 3 data/format error, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, FormatError, ResourceLimitError
from .mnistexp import mnist_config_from_dict, run_mask_search
from .partition import crossing_report
from .pipeline import STAGES, SWEEP_AXES, PipelineRun, SweepConfig, config_from_dict, fill_config, reseed_config, sweep

_SWEEPS = {f"sweep-{axis.tag}": swept for swept, axis in SWEEP_AXES.items()}  # command -> swept field


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmc",
        description="Block-surrogate MCMC for fixed-Hamming-weight Boltzmann sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ["pipeline", *_SWEEPS, "mnist"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--force", action="store_true", help="ignore cached stages")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
        if name == "pipeline":
            p.add_argument("--until", choices=STAGES, default=STAGES[-1],
                           help="last stage to run and summarize; the stages before it are read "
                                "from the cache when unchanged (default: %(default)s)")
    return parser


def _load_raw(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # bad UTF-8, bad JSON, too deep
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} is not a JSON object")
    return doc


def _experiment_config(raw: dict, args):
    sweep_cfg = fill_config(SweepConfig(), raw.pop("sweep", {}), where="sweep.")
    cfg = config_from_dict(raw)
    if args.seed is not None:
        reseed_config(cfg, args.seed)
    return cfg, sweep_cfg


def _tau(tau) -> str:
    """A fitted tau, or ``n/a`` for a kernel whose fit failed."""
    return "n/a" if tau is None else f"{tau:.6f}"


def _run(args) -> int:
    raw = _load_raw(args.config)
    # overrides go into the document, so the config loader checks them too
    if args.workers is not None:
        raw["workers"] = args.workers
    if args.command == "mnist":
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = mnist_config_from_dict(raw)
        if args.seed is not None:  # the loader has refused a negative seed
            reseed_config(cfg, args.seed)
        report = run_mask_search(cfg, args.out, force=args.force)
        print(json.dumps(report["baselines"], sort_keys=True))
        return 0

    cfg, sweep_cfg = _experiment_config(raw, args)
    if args.command in _SWEEPS:
        swept = _SWEEPS[args.command]
        axis = SWEEP_AXES[swept]
        values = getattr(sweep_cfg, axis.values)
        if not values:
            raise ConfigError(f"{args.command} requires config field sweep.{axis.values}")
        for r in sweep(cfg, swept, values, args.out, force=args.force):
            print(f"{axis.label}={r[swept]} kernel={r['kernel']} tau={_tau(r['tau'])}")
        return 0

    run = PipelineRun(cfg, args.out, force=args.force)
    value, _ = getattr(run, f"ensure_{args.until}")()
    if args.until == "instance":
        print(f"instance: n={value.n}, edges={value.num_edges}")
    elif args.until == "partition":
        report = crossing_report(value)
        print("block  p1-blocks-met")
        for r, met in enumerate((value.crossing > 0).sum(axis=1)):
            print(f"p2/{r:<4} {int(met)}")
        print(f"min={report.min_crossing} mean={report.mean_crossing:.2f} "
              f"violating={report.violating_blocks} vacuous={report.vacuous}")
    elif args.until == "qaoa":
        losses = ", ".join(f"{bid}: {loss:.4f}" for bid, (_, loss, _) in sorted(value.items()))
        print(f"qaoa losses: {losses}")
    elif args.until == "made":
        print(f"trained {len(value)} surrogate models")
    elif args.until == "mcmc":
        for kernel, pairs in sorted(value.items()):
            rate = sum(t.accepted.mean() for pair in pairs for t in pair) / (2 * len(pairs))
            print(f"{kernel}: {len(pairs)} pairs, mean acceptance {rate:.3f}")
    else:  # analysis
        for kernel, e in sorted(value["kernels"].items()):
            if e["tau"] is None:
                print(f"{kernel}: tau=n/a ({e['error']})")
            else:
                print(f"{kernel}: tau={e['tau']:.6f} (mean {e['tau_mean']:.6f} +- {e['tau_std']:.6f})")
        for pair, ratio in sorted(value["ratios"].items()):
            print(f"ratio {pair}: {ratio:.2f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
