"""The benchmark tracer's hooks still name functions of ``blockmc``.

``bench/child.py`` wraps module and class attributes by name; a renamed or
deleted function would fail only the benchmark's traced runs. Here its
``install`` runs against a stub tracer that checks every hook, and a short
chain of each kernel is run to check that the chain code calls its hooked
functions through their module, where the tracer's wrappers sit.
"""

import importlib.util
from pathlib import Path

import numpy as np

from blockmc import mcmc, qubo
from blockmc.pipeline import _chain_task
from test_mcmc import block_surrogate_config

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
