"""Artifact I/O: fuzzing of every loader, and the atomic writer.

Real artifacts of a tiny pipeline run (and small IDX files) are cut short,
overwritten or grown at random places; every loader must then either load
or raise ``FormatError``, never any other exception. Every writer goes
through ``fileio.write_bytes``, so a write that fails leaves the previous
file as it was, and no other module opens a file for writing.
"""

import ast
import io
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockmc
from blockmc import analysis, features, fileio, idx, made, mcmc, pipeline, qaoa
from blockmc.errors import FormatError
from blockmc.partition import load_partition_pair
from blockmc.qubo import load_instance
from blockmc.streams import stream

LOADERS = {
    "instance.json": load_instance,
    "partition.json": load_partition_pair,
    "qaoa/params_1_0.json": qaoa.load_params,
    "qaoa/samples_1_0.bin": qaoa.load_sample_set,
    "made/model_1_0.bin": made.load_model,
    "mcmc/trace_block-surrogate_0_a.bin": mcmc.load_trace,
    "manifest.json": pipeline.load_stages,
    "images.idx": idx.load_idx_images,
    "labels.idx": idx.load_idx_labels,
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A tiny run up to its chains, plus small IDX files."""
    out = tmp_path_factory.mktemp("run")
    cfg = pipeline.config_from_dict(
        {
            "instance": {"n": 12, "degree": 3, "seed": 1},
            "partition": {"block_size": 4, "seed": 2},
            "qaoa": {"p": 2, "restarts": 1, "max_evals_per_restart": 10,
                     "shots_per_angle": 20, "seed": 3},
            "made": {"epochs": 1, "seed": 4},
            "mcmc": {"kernels": ["block-surrogate"], "steps": 30, "pairs": 1, "thin": 2,
                     "seed": 5},
        }
    )
    pipeline.PipelineRun(cfg, out, log=io.StringIO()).ensure_mcmc()
    rng = stream(8)
    idx.write_idx_images(out / "images.idx", rng.integers(0, 256, (3, 4, 5)).astype(np.uint8))
    idx.write_idx_labels(out / "labels.idx", rng.integers(0, 10, 3).astype(np.uint8))
    return out


@pytest.fixture(scope="module")
def artifacts(run_dir):
    """Path -> bytes of one small artifact per loader."""
    return {name: (run_dir / name).read_bytes() for name in LOADERS}


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    pos = draw(st.integers(0, len(raw)))
    how = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    if how == "truncate":
        return raw[:pos]
    chunk = draw(st.binary(min_size=1, max_size=8))
    if how == "overwrite":
        return raw[:pos] + chunk + raw[pos + len(chunk):]
    return raw[:pos] + chunk + raw[pos:]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_mutated_artifact_loads_or_raises_format_error(tmp_path_factory, artifacts, name):
    path = tmp_path_factory.mktemp("fuzz") / name.replace("/", "_")
    load = LOADERS[name]
    path.write_bytes(artifacts[name])
    load(path)  # the unmutated artifact loads

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def check(data):
        path.write_bytes(data.draw(mutated(artifacts[name])))
        try:
            load(path)
        except FormatError:
            pass

    check()


@pytest.fixture(scope="module")
def loaded(run_dir):
    """The run's objects the writers below save again."""
    return {
        "samples": qaoa.load_sample_set(run_dir / "qaoa/samples_1_0.bin"),
        "model": made.load_model(run_dir / "made/model_1_0.bin"),
        "trace": mcmc.load_trace(run_dir / "mcmc/trace_block-surrogate_0_a.bin"),
    }


_RHO = np.array([1.0, 0.5, 0.25])
_ENTRY = {"tau": 0.5, "tau_mean": 0.5, "tau_std": 0.0, "n_pairs": 1, "slow_mixing": False}
_ROW = {"n": 8, "kernel": "global-kawasaki", "tau": 0.5, "tau_mean": 0.5, "tau_std": 0.0}
_MASK = np.array([0, 1, 1], dtype=np.uint8)

# every writer of an artifact file: name -> write(loaded objects, path)
WRITERS = {
    "save_sample_set": lambda o, p: qaoa.save_sample_set(o["samples"], p),
    "save_model": lambda o, p: made.save_model(o["model"], p),
    "save_trace": lambda o, p: mcmc.save_trace(o["trace"], p),
    "write_idx_images": lambda o, p: idx.write_idx_images(p, np.zeros((2, 3, 4), np.uint8)),
    "write_idx_labels": lambda o, p: idx.write_idx_labels(p, np.arange(3, dtype=np.uint8)),
    "TrainReport.save_csv": lambda o, p: made.TrainReport([-1.0], [-1.1]).save_csv(p),
    "save_rho_csv": lambda o, p: analysis.save_rho_csv([_RHO], p),
    "save_best_energy_csv": lambda o, p: analysis.save_best_energy_csv([o["trace"]], p, ["best_energy"]),
    "_save_tau_table": lambda o, p: pipeline._save_tau_table({"kernels": {"x": _ENTRY}}, p),
    "_save_sweep_csv": lambda o, p: pipeline._save_sweep_csv([_ROW], p, lead="n"),
    "save_mask": lambda o, p: features.save_mask(_MASK, p),
}


@pytest.mark.parametrize("name", WRITERS)
def test_failed_replace_keeps_the_previous_file(tmp_path, loaded, monkeypatch, name):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        WRITERS[name](loaded, path)
    assert path.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_write_bytes_creates_missing_parent(tmp_path):
    path = tmp_path / "a" / "b" / "file.bin"
    fileio.write_bytes(path, b"x", b"yz")
    assert path.read_bytes() == b"xyz"
    assert sorted(p.name for p in path.parent.iterdir()) == ["file.bin"]


def _opens_for_writing(call: ast.Call) -> bool:
    """A call of ``open`` or ``.open`` whose mode writes, appends or is unknown."""
    func = call.func
    if not (isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_only_fileio_opens_files_for_writing():
    offenders = []
    for path in sorted(Path(blockmc.__file__).parent.glob("*.py")):
        if path.name == "fileio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
