"""Command-line interface.

Subcommands run individual pipeline stages (upstream stages are ensured
first, cached stages are reused), the full pipeline, a tau sweep over
system size (``sweep-n``) or block size (``sweep-b``), and the
feature-selection experiment, itself one cached stage. Exit codes:
0 success, 2 config error, 3 data/format error, 4 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .errors import ConfigError, FormatError, ResourceLimitError
from .fileio import COUNT
from .mnistexp import mnist_config_from_dict, run_mask_search
from .partition import crossing_report
from .pipeline import PipelineRun, config_from_dict, fill_config, reseed_config, sweep

_STAGES = ("generate", "partition", "qaoa", "made", "mcmc", "analyze")
# command -> (swept field, its values under the config's "sweep", printed label)
_SWEEPS = {"sweep-n": ("n", "n_values", "n"), "sweep-b": ("block_size", "block_sizes", "|B|")}


@dataclass
class SweepConfig:
    """The config's optional ``sweep`` section: the values each sweep command runs."""

    n_values: list[int] | None = field(default=None, metadata={**COUNT, "distinct": True})
    block_sizes: list[int] | None = field(default=None, metadata={**COUNT, "distinct": True})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockmc",
        description="Block-surrogate MCMC for fixed-Hamming-weight Boltzmann sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = list(_STAGES) + ["pipeline", *_SWEEPS, "mnist"]
    for name in commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--force", action="store_true", help="ignore cached stages")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
    return parser


def _load_raw(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
        swept, values_key, label = _SWEEPS[args.command]
        values = getattr(sweep_cfg, values_key)
        if not values:
            raise ConfigError(f"{args.command} requires config field sweep.{values_key}")
        for r in sweep(cfg, swept, values, args.out, force=args.force):
            print(f"{label}={r[swept]} kernel={r['kernel']} tau={_tau(r['tau'])}")
        return 0

    run = PipelineRun(cfg, args.out, force=args.force)
    if args.command == "generate":
        inst, _ = run.ensure_instance()
        print(f"instance: n={inst.n}, edges={inst.num_edges}")
    elif args.command == "partition":
        pp, _ = run.ensure_partition()
        report = crossing_report(pp)
        print("block  p1-blocks-met")
        for r, met in enumerate((pp.crossing > 0).sum(axis=1)):
            print(f"p2/{r:<4} {int(met)}")
        print(
            f"min={report.min_crossing} mean={report.mean_crossing:.2f} "
            f"violating={report.violating_blocks} vacuous={report.vacuous}"
        )
    elif args.command == "qaoa":
        out, _ = run.ensure_qaoa()
        losses = ", ".join(f"{bid}: {loss:.4f}" for bid, (_, loss, _) in sorted(out.items()))
        print(f"qaoa losses: {losses}")
    elif args.command == "made":
        models, _ = run.ensure_made()
        print(f"trained {len(models)} surrogate models")
    elif args.command == "mcmc":
        traces, _ = run.ensure_mcmc()
        for kernel, pairs in sorted(traces.items()):
            rate = sum(t.accepted.mean() for pair in pairs for t in pair) / (2 * len(pairs))
            print(f"{kernel}: {len(pairs)} pairs, mean acceptance {rate:.3f}")
    elif args.command == "analyze":
        result, _ = run.ensure_analysis()
        for kernel, e in sorted(result["kernels"].items()):
            if e["tau"] is None:
                print(f"{kernel}: tau=n/a ({e['error']})")
            else:
                print(f"{kernel}: tau={e['tau']:.6f} (mean {e['tau_mean']:.6f} +- {e['tau_std']:.6f})")
        for pair, ratio in sorted(result["ratios"].items()):
            print(f"ratio {pair}: {ratio:.2f}")
    elif args.command == "pipeline":
        stages = run.run()
        print(f"pipeline complete: {len(stages)} stages in {args.out}")
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
