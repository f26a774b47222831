"""Records that hold numpy arrays compare by identity.

A dataclass's generated ``__eq__`` compares its fields as a tuple, and two
distinct arrays of more than one element have no truth value, so it would
raise on a copy with its own arrays. Each of these records is declared
``eq=False`` instead.
"""

import copy

import numpy as np
import pytest

from blockmc import features, made, mcmc, partition, qaoa, qubo


def _instance():
    return qubo.gen_regular_instance(8, 3, 1)


def _partition_pair():
    return partition.build_partition_pair(_instance(), [4, 4], [4, 4], seed=0)


def _block_problem():
    return qaoa.build_block_problem(_instance(), _partition_pair().p1[0])


def _chain_trace():
    init = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
    return mcmc.run_chain(_instance(), 4, mcmc.KernelConfig("local-kawasaki", 0.5), 5, init, seed=0)


RECORDS = {
    "LabeledDataset": lambda: features.LabeledDataset(
        images=np.array([[0, 1], [1, 1]], dtype=np.uint8), labels=np.array([0, 1]), n_classes=2
    ),
    "ConditionalMadeModel": lambda: made.build_model(3, made.TrainConfig(), seed=0),
    "ChainTrace": _chain_trace,
    "PartitionPair": _partition_pair,
    "BlockProblem": _block_problem,
    "SectorEigenbasis": lambda: qaoa.mixer_operator(_block_problem().size),
    "QaoaParams": lambda: qaoa.QaoaParams(gammas=[0.1, 0.2], betas=[0.3, 0.4]),
    "QuboInstance": _instance,
}


@pytest.mark.parametrize("name", RECORDS)
def test_compares_by_identity(name):
    x = RECORDS[name]()
    assert type(x).__name__ == name
    assert x == x
    assert (x == copy.deepcopy(x)) is False
