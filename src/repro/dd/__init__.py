"""Overlapping domain decomposition substrate (paper §2)."""

from .decomposition import Decomposition
from .dofmap import map_scalar_dofs, map_vector_dofs
from .overlap import grow_overlap, vertex_layers
from .pou import chi_tilde
from .problem import Problem
from .report import DecompositionReport, decomposition_report
from .subdomain import Subdomain, build_subdomain

__all__ = [
    "Problem",
    "decomposition_report",
    "DecompositionReport",
    "Decomposition",
    "Subdomain",
    "build_subdomain",
    "grow_overlap",
    "vertex_layers",
    "chi_tilde",
    "map_scalar_dofs",
    "map_vector_dofs",
]
