"""``get_strategy`` for the benchmark harness only.

The coarse problem has one solve path, :class:`repro.core.coarse.
CoarseOperator`.  ``benchmarks/e2e`` still calls ``get_strategy(None)``
and passes the result to ``CoarseOperator(strategy=)``; this module
stays until the harness refresh (ROADMAP item 1) drops both calls.
"""

from types import SimpleNamespace

from ..common.errors import ReproError

_SPARSE = SimpleNamespace(name="sparse")


def get_strategy(spec=None):
    """The one coarse solve, named ``"sparse"``; any other name raises."""
    if spec is None or spec is _SPARSE or spec == "sparse":
        return _SPARSE
    raise ReproError(f"unknown coarse strategy {spec!r}; expected 'sparse'")
