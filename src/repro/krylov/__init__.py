"""Krylov methods: GMRES(m), CG, deflated CG, pipelined p1-GMRES (§3.5)."""

from .cg import cg
from .deflated_cg import deflated_cg
from .gmres import KrylovResult, fgmres, gmres
from .pipelined import p1_gmres
from .sstep import s_step_gmres

__all__ = ["gmres", "fgmres", "cg", "deflated_cg", "p1_gmres",
           "s_step_gmres", "KrylovResult"]
