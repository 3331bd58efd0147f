"""perckit: a computational laboratory for k-percolation mathematics.

Exact and Monte Carlo machinery for no-k-gap probabilities of independent
event sequences, the f_k/g_k special-function family with its two-sided
product bounds, partitions without k-sequences and their q-series
identities, the two-dimensional k-percolation cellular automata (global and
localized variants), and the explicit diagonal/skew growth-event
constructions behind the metastability lower bounds.
"""

from .special_fn import (
    fk_eval,
    gk_eval,
    gk_derivative,
    integrate_gk,
    lambda_k,
)
from .gap_process import GapProcess, prob_ak, prob_ak_bounds, rho_exact, rho_sandwich
from .qseries import IntSeries, PartitionTable, andrews_gk_series, mock_theta_chi
from .lattice import Lattice, ModelSpec, Variant, run_to_fixpoint, sample_initial
from .growth_events import EventChain, SkewGeometry, StairGeometry

__version__ = "1.0.0"

__all__ = [
    "fk_eval",
    "gk_eval",
    "gk_derivative",
    "integrate_gk",
    "lambda_k",
    "GapProcess",
    "rho_exact",
    "rho_sandwich",
    "prob_ak",
    "prob_ak_bounds",
    "IntSeries",
    "PartitionTable",
    "andrews_gk_series",
    "mock_theta_chi",
    "Lattice",
    "ModelSpec",
    "Variant",
    "sample_initial",
    "run_to_fixpoint",
    "EventChain",
    "StairGeometry",
    "SkewGeometry",
    "__version__",
]
