"""Workload definitions and the seeded input generator.

Each workload is a scaled-down config that puts most of the work in a
different layer of ``blockmc``:

* ``tau-chains-b4``: the tau experiment on 16 blocks of 4; MCMC dominates,
  block-surrogate chains most of all.
* ``tau-qaoa-b8``: the tau experiment on 6 blocks of 8; exact QAOA on the
  dense mixer path (dim 256) dominates.
* ``mask-search-b12``: ``mnistexp.run_mask_search`` on synthetic IDX digits;
  QAOA on the CSR mixer path (dims 4096 and 8192) dominates, and it is the only
  workload that touches ``features``, ``idx`` and ``mnistexp``.

Step counts, evaluation caps and shot counts are cut from the full-scale
configs so that a cold run takes seconds, not minutes, and a benchmark run
holds several of them; the evaluation caps are far below what Nelder-Mead
needs to converge, so every seed does the same number of QAOA evaluations.
The cost of one evaluation grows with the mixer angles (the Taylor series
takes ceil(|beta| * edges) sub-steps), and the angles come from the random
starts, so the QAOA start seed is the same for every workload seed
(QAOA_SEED): with starts drawn per seed, the Taylor work of the mask search
spread by 10 % over ten seeds (quartile distance over median) and its cold
run took 8.2-10.6 s, which is a property of the starts, not of the program.
The seed still varies the instance, the partition, the digits and the MADE
and chain seeds. The mask search is cut furthest (p=3, one restart, 20x20
images) so that a benchmark run holds three or more repetitions of it: at
p=5 on 28x28 images one cold run took 15-20 s. The program receives only
the config and files made here.
"""

from __future__ import annotations

import copy
from dataclasses import asdict
from pathlib import Path

import numpy as np

from blockmc import idx
from blockmc.pipeline import config_from_dict, reseed_config
from blockmc.streams import derive_seed, stream
from tracing import KERNELS, MASK_KERNELS, MASK_STOPS


TAU_CONFIGS = {
    "tau-chains-b4": {
        "instance": {"n": 32, "degree": 3},
        "partition": {"block_size": 4},
        "qaoa": {"p": 5, "restarts": 1, "max_evals_per_restart": 30, "shots_per_angle": 512},
        "made": {"epochs": 10},
        "mcmc": {"kernels": list(KERNELS), "steps": 4000, "pairs": 2},
        "analysis": {"max_lag": 2000},
        "workers": 1,
    },
    "tau-qaoa-b8": {
        "instance": {"n": 24, "degree": 3},
        "partition": {"block_size": 8},
        "qaoa": {"p": 5, "restarts": 3, "max_evals_per_restart": 8, "shots_per_angle": 512},
        "made": {"epochs": 10},
        "mcmc": {"kernels": list(KERNELS), "steps": 400, "pairs": 2},
        "analysis": {"max_lag": 300},
        "workers": 1,
    },
}

MASK_CONFIG = {
    "downsample_factor": 4,
    "k": 10,
    "block_size": 12,
    "beta_pi": 100.0,
    "qaoa": {"p": 3, "restarts": 1, "max_evals_per_restart": 8, "shots_per_angle": 512},
    "made": {"epochs": 10},
    "steps": MASK_STOPS[-1],
    "stop_steps": list(MASK_STOPS),
    "kernels": list(MASK_KERNELS),
    "repeats": 2,
    "random_masks": 2,
    "classifier": {"iterations": 50},
    "workers": 1,
}

WORKLOADS = (*TAU_CONFIGS, "mask-search-b12")

# Seed of the QAOA restarts' random starts, the same on every workload seed.
QAOA_SEED = 7

# Synthetic digits: 20x20 images whose label signal lives on a 5x5 grid of
# 4x4 patches, so 4x mean-pooling keeps it (the 14x14 grid of the test
# helpers blurs away and leaves the selection QUBO without couplings). The
# 25 pooled pixels split into blocks of 13 and 12 in both partitions.
IMAGE_SIDE = 20
GRID = 5
PATCH = IMAGE_SIDE // GRID
N_CLASSES = 10
N_SIGNAL_CELLS = 8
N_TRAIN = 6000
N_TEST = 1000


def make_spec(workload: str, seed: int, data_dir, n_train: int = N_TRAIN, n_test: int = N_TEST) -> dict:
    """The child's input for one workload and seed: {"kind", "config"}.

    Tau configs get their stage seeds from ``reseed_config``; the mask search
    gets its seeds derived from ``seed`` and IDX files written to ``data_dir``.
    Every workload keeps QAOA_SEED as its QAOA seed.
    """
    if workload in TAU_CONFIGS:
        cfg = reseed_config(config_from_dict(copy.deepcopy(TAU_CONFIGS[workload])), seed)
        cfg.qaoa.seed = QAOA_SEED
        return {"kind": "pipeline", "config": asdict(cfg)}
    if workload != "mask-search-b12":
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    doc = copy.deepcopy(MASK_CONFIG)
    doc["seed"] = derive_seed(seed, 11)
    doc["qaoa"]["seed"] = QAOA_SEED
    doc["made"]["seed"] = derive_seed(seed, 4)
    doc.update(write_digits(Path(data_dir), seed, n_train, n_test))
    return {"kind": "mask", "config": doc}


def make_digits(n_samples: int, layout_seed: int, seed: int):
    """Grayscale digits: per-class on-probability 0.15 or 0.85 on the signal
    cells, background cells on with probability 0.06; pooling 4x4 and
    thresholding at 127 recovers every cell exactly."""
    layout = stream(layout_seed, 1)
    cells_signal = layout.choice(GRID * GRID, size=N_SIGNAL_CELLS, replace=False)
    p_on = np.where(layout.random((N_CLASSES, N_SIGNAL_CELLS)) < 0.5, 0.15, 0.85)
    rng = stream(seed, 2)
    labels = rng.integers(0, N_CLASSES, size=n_samples).astype(np.uint8)
    cells = rng.random((n_samples, GRID * GRID)) < 0.06
    cells[:, cells_signal] = rng.random((n_samples, N_SIGNAL_CELLS)) < p_on[labels]
    shape = (n_samples, GRID, GRID, PATCH, PATCH)
    bright = rng.integers(160, 256, size=shape, dtype=np.uint8)
    dark = rng.integers(0, 91, size=shape, dtype=np.uint8)
    patches = np.where(cells.reshape(n_samples, GRID, GRID, 1, 1), bright, dark)
    images = patches.transpose(0, 1, 3, 2, 4).reshape(n_samples, IMAGE_SIDE, IMAGE_SIDE)
    return images, labels


def write_digits(data_dir: Path, seed: int, n_train: int, n_test: int) -> dict:
    """Write the train/test IDX pairs; returns the mask-config path fields."""
    data_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, count, key in (("train", n_train, 1), ("test", n_test, 2)):
        images, labels = make_digits(count, layout_seed=seed, seed=derive_seed(seed, key))
        paths[f"{split}_images"] = str(data_dir / f"{split}-images.idx")
        paths[f"{split}_labels"] = str(data_dir / f"{split}-labels.idx")
        idx.write_idx_images(paths[f"{split}_images"], images)
        idx.write_idx_labels(paths[f"{split}_labels"], labels)
    return paths
