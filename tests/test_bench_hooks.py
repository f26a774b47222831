"""The benchmark tracer's hooks still name functions of ``blockmc``.

``bench/child.py`` wraps module and class attributes by name; a renamed or
deleted function would fail only the benchmark's traced runs. Here its
``install`` runs against a stub tracer that checks every hook, and a short
chain of each kernel is run to check that the chain code calls its hooked
functions through their module, where the tracer's wrappers sit; a sector
table is built to check that it reads the MADE's density through its class.
A tiny traced pipeline run checks the arguments the tracer reads to label a
call.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from blockmc import made, mcmc, pipeline, qubo
from blockmc.pipeline import _chain_task
from test_mcmc import block_surrogate_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_module(name, path, monkeypatch=None):
    """Execute ``path`` as module ``name``; with ``monkeypatch``, registered in
    ``sys.modules`` first (dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_child():
    return load_module("bench_child", BENCH / "child.py")


class HookCheck:
    """A tracer that wraps nothing and asserts that each hooked attribute exists."""

    def __init__(self):
        self.hooked = set()

    def wrap(self, owner, attr, name, **options):
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is not a function"
        self.hooked.add((owner, attr))

    def observe(self, owner, attr, hook):
        self.wrap(owner, attr, attr)


def test_every_hook_names_a_function():
    tracer = HookCheck()
    load_child().install(tracer)
    assert {(mcmc, "run_chain"), (mcmc, "energy_delta_swap"), (mcmc, "energy_delta_block")} <= tracer.hooked


def test_chains_call_the_hooked_functions_through_their_module(monkeypatch):
    calls = []
    for attr in ("run_chain", "energy_delta_swap", "energy_delta_block"):
        fn = getattr(mcmc, attr)
        monkeypatch.setattr(mcmc, attr, lambda *a, _fn=fn, _attr=attr: calls.append(_attr) or _fn(*a))
    inst = qubo.gen_regular_instance(8, 3, seed=1)
    init = np.array([1, 0] * 4, dtype=np.uint8)
    for kind in mcmc.KERNELS:
        cfg = block_surrogate_config(inst, [4, 4]) if kind == "block-surrogate" else mcmc.KernelConfig(kind, 0.5)
        _chain_task((inst, 4, cfg, 200, init, 3, 1))
    assert {"run_chain", "energy_delta_swap", "energy_delta_block"} <= set(calls)


def test_sector_tables_call_the_density_through_its_class(monkeypatch):
    calls = []
    fn = made.ConditionalMadeModel.log_prob
    monkeypatch.setattr(made.ConditionalMadeModel, "log_prob", lambda *a: calls.append(a) or fn(*a))
    mcmc.sector_table(made.build_model(4, made.TrainConfig(), seed=0), 2)
    assert calls


def test_traced_run_labels_calls_by_block_size_and_kernel(tmp_path, monkeypatch):
    """The tracer labels ``qaoa_state`` calls by ``args[0].size`` and
    ``run_chain`` calls by ``args[2].kind``, so both keep those arguments."""
    child = load_child()
    hooks = HookCheck()
    child.install(hooks)
    for owner, attr in hooks.hooked:  # undone at teardown, with the wrappers set below
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = load_module("bench_tracing", BENCH / "tracing.py", monkeypatch).Tracer()
    child.install(tracer)
    cfg = pipeline.config_from_dict({
        "instance": {"n": 8, "degree": 3, "seed": 1},
        "partition": {"block_size": 4, "seed": 2},
        "qaoa": {"p": 1, "restarts": 1, "max_evals_per_restart": 10, "shots_per_angle": 20, "seed": 3},
        "made": {"epochs": 1, "seed": 4},
        "mcmc": {"kernels": list(mcmc.KERNELS), "steps": 50, "pairs": 1, "seed": 5},
        "analysis": {"max_lag": 10},
    })
    pipeline.PipelineRun(cfg, tmp_path).run()
    stats = {(name, label) for name, label, *_ in tracer.dump()["stats"]}
    assert ("qaoa.qaoa_state", "b4") in stats
    assert {("mcmc.run_chain", kind) for kind in mcmc.KERNELS} <= stats
