"""End-to-end feature-mask optimization on IDX image data.

Builds the mutual-information selection QUBO from the training split, runs
the block-surrogate sampler against global Kawasaki at low temperature,
tracks best-so-far energies, converts the best configurations at the
configured stop steps into pixel masks, and scores every mask (plus
Random-K and Linear-Terms-K baselines) with the logistic-regression
classifier. Local Kawasaki is not offered here: thresholded MI graphs have
isolated vertices, which leave that kernel unable to move their bits.

The partition, per-block QAOA and MADE and the search chains run on the
stage code of ``pipeline`` (``optimize_blocks``, ``train_surrogates``,
``fan_out``), without its stage cache: every run builds them afresh.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, mcmc
from .errors import ConfigError
from .features import (
    LabeledDataset,
    binarize,
    build_feature_qubo,
    build_mi_table,
    downsample,
    evaluate_mask,
    mask_from_config,
    random_mask,
    save_mask,
    top_k_linear_mask,
)
from .idx import load_idx
from .partition import build_partition_pair, save_partition_pair, spread_block_sizes
from .pipeline import (
    MadeConfig,
    QaoaConfig,
    _chain_task,
    fan_out,
    fill_config,
    optimize_blocks,
    require_kernels,
    require_positive,
    train_surrogates,
)
from .qubo import QuboInstance, random_weight_k_config, save_instance
from .streams import derive_seed, stream

# Reference accuracies for the full-scale benchmark (28x28 inputs, K=50,
# optimized chains stopped at steps 50 and 3000); emitted for comparison,
# never used as a gate.
FULL_SCALE_REFERENCE_ACCURACY = {
    "block-surrogate@50": 0.7951,
    "block-surrogate@3000": 0.8051,
    "global-kawasaki@50": 0.7748,
    "global-kawasaki@3000": 0.8050,
    "linear-terms": 0.7603,
    "random": 0.7100,
}


@dataclass
class ClassifierConfig:
    iterations: int = 500
    learning_rate: float = 0.5
    reg_strength: float = 1e-4


@dataclass
class MnistConfig:
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    downsample_factor: int = 1
    binarize_threshold: int = 127
    limit_train: int | None = None
    limit_test: int | None = None
    k: int = 50
    beta_pi: float = 100.0
    block_size: int = 14
    edge_threshold: float = 1e-3
    steps: int = 3000
    stop_steps: list[int] = field(default_factory=lambda: [50, 3000])
    repeats: int = 10
    random_masks: int = 10
    kernels: list[str] = field(default_factory=lambda: ["block-surrogate", "global-kawasaki"])
    qaoa: QaoaConfig = field(default_factory=QaoaConfig)  # biased_target_weight None: K*|B|/N
    made: MadeConfig = field(default_factory=MadeConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    seed: int = 11
    workers: int = 1


def mnist_config_from_dict(doc: dict) -> MnistConfig:
    cfg = fill_config(MnistConfig(), doc)
    require_kernels(cfg.kernels, ("block-surrogate", "global-kawasaki"))
    if not (isinstance(cfg.stop_steps, list) and cfg.stop_steps):
        raise ConfigError("stop_steps must be a non-empty list")
    require_positive(
        {
            "repeats": cfg.repeats,
            "workers": cfg.workers,
            **{f"stop_steps[{i}]": stop for i, stop in enumerate(cfg.stop_steps)},
        }
    )
    if max(cfg.stop_steps) > cfg.steps:
        raise ConfigError("stop_steps must not exceed steps")
    return cfg


def load_datasets(cfg: MnistConfig) -> tuple[LabeledDataset, LabeledDataset]:
    for path in (cfg.train_images, cfg.train_labels, cfg.test_images, cfg.test_labels):
        if not Path(path).exists():
            raise ConfigError(f"dataset file not found: {path}")
    tr_img, tr_lab = load_idx(cfg.train_images, cfg.train_labels)
    te_img, te_lab = load_idx(cfg.test_images, cfg.test_labels)
    if cfg.limit_train:
        tr_img, tr_lab = tr_img[: cfg.limit_train], tr_lab[: cfg.limit_train]
    if cfg.limit_test:
        te_img, te_lab = te_img[: cfg.limit_test], te_lab[: cfg.limit_test]
    if cfg.downsample_factor > 1:
        tr_img = downsample(tr_img, cfg.downsample_factor)
        te_img = downsample(te_img, cfg.downsample_factor)
    train = binarize(tr_img, tr_lab, threshold=cfg.binarize_threshold)
    test = binarize(te_img, te_lab, threshold=cfg.binarize_threshold)
    n_classes = max(train.n_classes, test.n_classes)
    train.n_classes = n_classes
    test.n_classes = n_classes
    return train, test


def best_config_at(trace: mcmc.ChainTrace, stop: int) -> np.ndarray:
    """Configuration with the lowest energy within the first ``stop`` steps."""
    upto = min(stop, trace.steps)
    best = int(np.argmin(trace.energies[: upto + 1]))
    return trace.configs[best]  # thin == 1 for mask searches


def run_mask_search(cfg: MnistConfig, out, log=None) -> dict:
    """Full mask-selection experiment; returns the report dict."""
    log = log if log is not None else sys.stderr
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    def say(msg):
        print(msg, file=log)

    t0 = time.monotonic()
    train, test = load_datasets(cfg)
    say(f"datasets: {len(train.images)} train, {len(test.images)} test, "
        f"{train.n_pixels} pixels, {train.n_classes} classes "
        f"({time.monotonic() - t0:.1f}s)")

    t0 = time.monotonic()
    mi = build_mi_table(train)
    inst = build_feature_qubo(mi, cfg.k, edge_threshold=cfg.edge_threshold)
    save_instance(inst, out / "qubo.json")
    say(f"selection qubo: {inst.n} vars, {inst.num_edges} edges "
        f"({time.monotonic() - t0:.1f}s)")

    traces = _optimize_masks(cfg, inst, out, say)

    report = {
        "n_pixels": inst.n,
        "k": cfg.k,
        "beta_pi": cfg.beta_pi,
        "kernels": {},
        "baselines": {},
        "reference_full_scale": FULL_SCALE_REFERENCE_ACCURACY,
    }
    cls = cfg.classifier

    def accuracy(mask):
        return evaluate_mask(train, test, mask, reg_strength=cls.reg_strength,
                             iterations=cls.iterations, learning_rate=cls.learning_rate)

    (out / "masks").mkdir(exist_ok=True)
    for kernel in cfg.kernels:
        entry = {"stops": {}}
        _write_best_energy_csv(traces[kernel], out / f"best_energy_{kernel}.csv")
        for stop in cfg.stop_steps:
            energies, accs = [], []
            for r, trace in enumerate(traces[kernel]):
                bits = best_config_at(trace, stop)
                mask = mask_from_config(bits)
                save_mask(mask, out / "masks" / f"{kernel}_stop{stop}_run{r}.txt")
                energies.append(float(np.min(trace.energies[: stop + 1])))
                accs.append(accuracy(mask))
            entry["stops"][str(stop)] = {
                "best_energy": energies,
                "accuracy": accs,
                "accuracy_mean": float(np.mean(accs)),
            }
        report["kernels"][kernel] = entry
        say(f"kernel {kernel}: accuracies "
            + ", ".join(
                f"@{s}: {entry['stops'][str(s)]['accuracy_mean']:.4f}"
                for s in cfg.stop_steps
            ))

    rng = stream(cfg.seed, 7)
    rand_accs = [accuracy(random_mask(inst.n, cfg.k, rng)) for _ in range(cfg.random_masks)]
    lin_mask = top_k_linear_mask(inst, cfg.k)
    save_mask(lin_mask, out / "masks" / "linear_terms.txt")
    lin_acc = accuracy(lin_mask)
    report["baselines"] = {
        "random": {
            "accuracy": rand_accs,
            "accuracy_mean": float(np.mean(rand_accs)),
            "accuracy_std": float(np.std(rand_accs, ddof=1)) if len(rand_accs) > 1 else 0.0,
        },
        "linear-terms": {"accuracy": lin_acc},
    }
    say(f"baselines: random {report['baselines']['random']['accuracy_mean']:.4f}, "
        f"linear-terms {lin_acc:.4f}")
    with open(out / "report.json", "w") as f:
        json.dump(report, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return report


def _optimize_masks(cfg: MnistConfig, inst: QuboInstance, out: Path, say) -> dict:
    """Partition + QAOA + MADE (if needed) and the per-kernel search chains."""
    pp = models = None
    if "block-surrogate" in cfg.kernels:
        t0 = time.monotonic()
        sizes = spread_block_sizes(inst.n, cfg.block_size)
        pp = build_partition_pair(inst, sizes, sizes, derive_seed(cfg.seed, 1))
        save_partition_pair(pp, out / "partition.json")
        target = cfg.qaoa.biased_target_weight
        if target is None:
            target = cfg.k * cfg.block_size / inst.n
        qaoa_cfg = replace(cfg.qaoa, biased_target_weight=target)
        qaoa_out = optimize_blocks(inst, list(pp.p1) + list(pp.p2), qaoa_cfg, cfg.workers)
        say(f"qaoa: {len(qaoa_out)} blocks ({time.monotonic() - t0:.1f}s)")
        t0 = time.monotonic()
        trained = train_surrogates(qaoa_out, cfg.made, cfg.workers)
        models = {bid: model for bid, (model, _) in trained.items()}
        say(f"made: {len(models)} models ({time.monotonic() - t0:.1f}s)")

    t0 = time.monotonic()
    tasks = []
    for k_idx, kernel in enumerate(cfg.kernels):
        kernel_cfg = mcmc.KernelConfig(kernel, cfg.beta_pi, pp, models)
        for r in range(cfg.repeats):
            init = random_weight_k_config(inst.n, cfg.k, stream(cfg.seed, 50, r))
            seed = derive_seed(cfg.seed, k_idx, r)
            tasks.append((inst, cfg.k, kernel_cfg, cfg.steps, init, seed, 1))
    chains = fan_out(_chain_task, tasks, cfg.workers)
    say(f"mcmc: {len(tasks)} runs x {cfg.steps} steps ({time.monotonic() - t0:.1f}s)")
    return {
        kernel: chains[k_idx * cfg.repeats : (k_idx + 1) * cfg.repeats]
        for k_idx, kernel in enumerate(cfg.kernels)
    }


def _write_best_energy_csv(traces, path):
    """Running minimum of every run, one column per run."""
    best = [analysis.best_energy_trace(t) for t in traces]
    with open(path, "w") as f:
        f.write("step," + ",".join(f"run{r}" for r in range(len(best))) + "\n")
        for t in range(len(best[0])):
            f.write(f"{t}," + ",".join(repr(b[t]) for b in best) + "\n")
