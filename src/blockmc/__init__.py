"""Block-surrogate Metropolis-Hastings for fixed-Hamming-weight sampling.

The pieces, bottom to top: ``qubo`` (problem representation and exact
oracles), ``partition`` (greedy crossing block partitions), ``qaoa``
(exact block statevector simulation with XY mixers), ``made`` (conditional
autoregressive surrogates), ``mcmc`` (the three proposal kernels and chain
driver), ``analysis`` (overlap autocorrelation and decay-rate fits),
``features``/``idx``/``mnistexp`` (feature-mask selection on image data),
``pipeline``/``cli`` (staged, cached, reproducible runs), and ``fileio``
(the checked reading and atomic writing of every artifact file).
"""

from .analysis import autocorrelation, fit_decay_rate, overlap_series
from .made import ConditionalMadeModel, TrainConfig, build_model, train
from .mcmc import ChainTrace, KernelConfig, run_chain
from .partition import Block, PartitionPair, build_partition, build_partition_pair
from .qaoa import BlockProblem, QaoaParams, build_block_problem, optimize_params
from .qubo import QuboInstance, energy, enumerate_constrained_boltzmann, gen_regular_instance

__version__ = "0.1.0"
