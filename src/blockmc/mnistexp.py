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
``run_chains``), and the best-energy CSVs go through the tau analysis's
writer, ``analysis.save_best_energy_csv``. The whole search is one stage, ``mask-search``, of
``pipeline.StageCache``: keyed by the config (less ``workers``), the contents of the four IDX
files and the layout of ``report.json`` (``_FORMAT``), it is reused from ``manifest.json`` while
every file it wrote is unchanged (``force`` rebuilds it). Its QAOA, MADE and chain results are
not kept as artifacts, so any miss rebuilds them all.

The paper's 28x28 MNIST results (K=50, chains stopped at steps 50 and
3000) give accuracies of 0.7951 and 0.8051 for block-surrogate, 0.7748
and 0.8050 for global Kawasaki, 0.7603 for Linear-Terms-K and 0.7100 for
Random-K. A search on synthetic digits cannot reproduce them; they are
recorded here for reference only.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, made, mcmc
from .errors import ConfigError
from .features import (
    LabeledDataset,
    binarize,
    build_feature_qubo,
    build_mi_table,
    downsample,
    evaluate_mask,
    save_mask,
    top_k_linear_mask,
)
from .fileio import COUNT, COUNTS, SEED, read_object, write_json
from .idx import load_idx
from .partition import build_partition_pair, save_partition_pair, spread_block_sizes
from .pipeline import (
    QaoaConfig,
    StageCache,
    _hash,
    _sha256,
    fill_config,
    optimize_blocks,
    run_chains,
    train_surrogates,
)
from .qubo import QuboInstance, random_weight_k_config, save_instance
from .streams import derive_seed, stream

# the kernels a mask search may run: local Kawasaki cannot move the bits of
# isolated vertices (module docstring)
SEARCH_KERNELS = ("block-surrogate", "global-kawasaki")
_FORMAT = 1  # the layout of report.json, named in the mask-search stage key


@dataclass
class ClassifierConfig:
    iterations: int = field(default=500, metadata=COUNT)
    learning_rate: float = field(default=0.5, metadata={">": 0})
    reg_strength: float = field(default=1e-4, metadata={">=": 0})


@dataclass
class MnistConfig:
    train_images: str = ""
    train_labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    downsample_factor: int = field(default=1, metadata=COUNT)
    binarize_threshold: int = field(default=127, metadata={">=": 0, "<=": 255})
    limit_train: int | None = field(default=None, metadata=COUNT)  # None: no limit
    limit_test: int | None = field(default=None, metadata=COUNT)
    k: int = field(default=50, metadata={">=": 2})  # build_feature_qubo needs k >= 2
    beta_pi: float = 100.0
    block_size: int = field(default=14, metadata=COUNT)
    edge_threshold: float = 1e-3
    steps: int = 3000
    stop_steps: list[int] = field(default_factory=lambda: [50, 3000], metadata={**COUNTS, "distinct": True})
    repeats: int = field(default=10, metadata=COUNT)
    random_masks: int = field(default=10, metadata=COUNT)
    kernels: list[str] = field(
        default_factory=lambda: list(SEARCH_KERNELS),
        metadata={"choices": SEARCH_KERNELS, "nonempty": True, "distinct": True},
    )
    qaoa: QaoaConfig = field(default_factory=QaoaConfig)  # biased_target_weight None: K*|B|/N
    made: made.TrainConfig = field(default_factory=lambda: made.TrainConfig(seed=4))
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    seed: int = field(default=11, metadata=SEED)
    workers: int = field(default=1, metadata=COUNT)


def mnist_config_from_dict(doc: dict) -> MnistConfig:
    cfg = fill_config(MnistConfig(), doc)
    if max(cfg.stop_steps) > cfg.steps:
        raise ConfigError("stop_steps must not exceed steps")
    return cfg


def load_datasets(cfg: MnistConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """The binarized splits; a split with no images, images that
    ``downsample_factor`` does not divide, or test images of another shape
    than the training images raise ``ConfigError``."""
    tr_img, tr_lab = load_idx(cfg.train_images, cfg.train_labels)
    te_img, te_lab = load_idx(cfg.test_images, cfg.test_labels)
    for path, images in ((cfg.train_images, tr_img), (cfg.test_images, te_img)):
        if len(images) == 0:
            raise ConfigError(f"{path} holds no images")
        if images.shape[1] % cfg.downsample_factor or images.shape[2] % cfg.downsample_factor:
            raise ConfigError(f"downsample_factor={cfg.downsample_factor} does not divide the "
                              f"{images.shape[1]}x{images.shape[2]} images of {path}")
    if tr_img.shape[1:] != te_img.shape[1:]:
        raise ConfigError(f"{cfg.train_images} holds {tr_img.shape[1]}x{tr_img.shape[2]} images but "
                          f"{cfg.test_images} holds {te_img.shape[1]}x{te_img.shape[2]}")
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


def run_mask_search(cfg: MnistConfig, out, log=None, force=False) -> dict:
    """Full mask-selection experiment, or its report read back when ``out``
    holds a finished run of the same config and data; returns the report dict."""
    doc = asdict(cfg)
    del doc["workers"]  # the artifacts do not depend on it
    data = [cfg.train_images, cfg.train_labels, cfg.test_images, cfg.test_labels]
    for path in data:
        if not Path(path).is_file():
            raise ConfigError(f"dataset file not found: {path}")
    run = StageCache(out, ("mask-search",), force=force, log=log)
    return run._stage(
        "mask-search",
        _hash({"cfg": doc, "data": [_sha256(path) for path in data], "format": _FORMAT}),
        _artifacts(cfg),
        lambda: read_object(run.out / "report.json"),
        lambda: _search(cfg, run.out, run.log),
    )


def _artifacts(cfg: MnistConfig) -> list[str]:
    """The files a mask search with ``cfg`` writes, relative to its output."""
    files = ["report.json", "qubo.json", "masks/linear_terms.txt"]
    if any(mcmc.KERNELS[kernel].uses_blocks for kernel in cfg.kernels):
        files.append("partition.json")
    for kernel in cfg.kernels:
        files.append(f"best_energy_{kernel}.csv")
        files += [_mask_file(kernel, stop, r) for stop in cfg.stop_steps for r in range(cfg.repeats)]
    return files


def _mask_file(kernel: str, stop: int, run: int) -> str:
    return f"masks/{kernel}_stop{stop}_run{run}.txt"


def _search(cfg: MnistConfig, out: Path, log) -> dict:
    """The search itself: writes every file of ``_artifacts(cfg)``; returns the report."""

    def say(msg):
        print(msg, file=log)

    t0 = time.monotonic()
    train, test = load_datasets(cfg)
    say(f"datasets: {len(train.images)} train, {len(test.images)} test, "
        f"{train.n_pixels} pixels, {train.n_classes} classes "
        f"({time.monotonic() - t0:.1f}s)")
    # the pixel count is known only now; k = n leaves one mask, on which
    # global Kawasaki has no pair to swap
    n = train.n_pixels
    if cfg.k >= n:
        raise ConfigError(f"k={cfg.k} is not in [2, {n - 1}] for {n} pixels")
    if cfg.block_size > n:
        raise ConfigError(f"block_size={cfg.block_size} is not in [1, {n}] for {n} pixels")

    t0 = time.monotonic()
    inst = build_feature_qubo(build_mi_table(train), cfg.k, edge_threshold=cfg.edge_threshold)
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
    }
    cls = cfg.classifier
    scores = {}

    def accuracy(mask):
        # evaluate_mask is deterministic, so each distinct mask is scored once
        key = mask.tobytes()
        if key not in scores:
            scores[key] = evaluate_mask(train, test, mask, reg_strength=cls.reg_strength,
                                        iterations=cls.iterations, learning_rate=cls.learning_rate)
        return scores[key]

    runs = [f"run{r}" for r in range(cfg.repeats)]
    for kernel in cfg.kernels:
        entry = {"stops": {}}
        analysis.save_best_energy_csv(traces[kernel], out / f"best_energy_{kernel}.csv", runs)
        for stop in cfg.stop_steps:
            energies, accs = [], []
            for r, trace in enumerate(traces[kernel]):
                mask = best_config_at(trace, stop)
                save_mask(mask, out / _mask_file(kernel, stop, r))
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
    rand_accs = [accuracy(random_weight_k_config(inst.n, cfg.k, rng)) for _ in range(cfg.random_masks)]
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
    write_json(report, out / "report.json")
    return report


def _optimize_masks(cfg: MnistConfig, inst: QuboInstance, out: Path, say) -> dict:
    """Partition + QAOA + MADE (if needed) and the per-kernel search chains."""
    pp = models = None
    if any(mcmc.KERNELS[kernel].uses_blocks for kernel in cfg.kernels):
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
        trained = train_surrogates(qaoa_out, cfg.made, cfg.workers, reports=False)
        models = {bid: model for bid, (model, _) in trained.items()}
        say(f"made: {len(models)} models ({time.monotonic() - t0:.1f}s)")

    t0 = time.monotonic()
    traces = run_chains(inst, cfg.k, cfg.kernels, cfg.beta_pi, pp, models, steps=cfg.steps, thin=1, seed=cfg.seed,
                        init_key=50, replicas=[(r,) for r in range(cfg.repeats)], workers=cfg.workers)
    say(f"mcmc: {len(cfg.kernels) * cfg.repeats} runs x {cfg.steps} steps ({time.monotonic() - t0:.1f}s)")
    return traces
