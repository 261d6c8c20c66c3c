"""The paper's contribution: GenEO coarse spaces, the coarse operator
machinery of §3, and the one-/two-level Schwarz preconditioners."""

from .abstract import AbstractDeflation, nonoverlapping_pattern
from .adef import TwoLevelADEF1, TwoLevelADEF2, TwoLevelBNN
from .coarse import (
    CoarseOperator,
    assemble_az,
    assemble_coarse_matrix,
    coarse_blocks,
    coarse_blocks_with_T,
    elect_masters_nonuniform,
    elect_masters_uniform,
    split_ranges,
)
from .deflation import DeflationSpace
from .geneo import (
    GeneoResult,
    available_coarse_spaces,
    compute_deflation,
    extended_deflation,
    extended_pencil,
    geneo_pencil,
    get_coarse_space,
    nicolaides_deflation,
    register_coarse_space,
)
from .ras import OneLevelASM, OneLevelRAS
from .ritz import arnoldi, harmonic_ritz_pairs, ritz_deflation
from .solver import SchwarzSolver, SolveReport
from .spmd_ft import SpmdFtReport, solve_spmd_ft

__all__ = [
    "AbstractDeflation",
    "nonoverlapping_pattern",
    "ritz_deflation",
    "arnoldi",
    "harmonic_ritz_pairs",
    "SchwarzSolver",
    "SolveReport",
    "OneLevelRAS",
    "OneLevelASM",
    "TwoLevelADEF1",
    "TwoLevelADEF2",
    "TwoLevelBNN",
    "CoarseOperator",
    "DeflationSpace",
    "coarse_blocks",
    "coarse_blocks_with_T",
    "assemble_coarse_matrix",
    "assemble_az",
    "elect_masters_uniform",
    "elect_masters_nonuniform",
    "split_ranges",
    "compute_deflation",
    "extended_deflation",
    "nicolaides_deflation",
    "geneo_pencil",
    "extended_pencil",
    "get_coarse_space",
    "register_coarse_space",
    "available_coarse_spaces",
    "GeneoResult",
    "SpmdFtReport",
    "solve_spmd_ft",
]
