"""Property-based fuzzing of every artifact loader.

Real artifacts of a tiny pipeline run (and small IDX files) are cut short,
overwritten or grown at random places; every loader must then either load
or raise ``FormatError``, never any other exception.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockmc import idx, made, mcmc, pipeline, qaoa
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
    "manifest.json": pipeline.RunManifest.load,
    "images.idx": idx.load_idx_images,
    "labels.idx": idx.load_idx_labels,
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Path -> bytes of one small artifact per loader."""
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
    return {name: (out / name).read_bytes() for name in LOADERS}


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
