"""Performance modelling: α–β machine model + scaling harness."""

from .coarse_costs import CoarseCost, strategy_cost
from .extrapolate import PowerLaw, StrongScalingModel, fit_power_law
from .machine import CURIE, MachineModel
from .scaling import (
    CoarseReport,
    ScalingRow,
    coarse_operator_report,
    iteration_comm_time,
    measure_row,
    speedup,
    weak_efficiency,
)

__all__ = [
    "CoarseCost",
    "strategy_cost",
    "PowerLaw",
    "StrongScalingModel",
    "fit_power_law",
    "MachineModel",
    "CURIE",
    "ScalingRow",
    "CoarseReport",
    "measure_row",
    "iteration_comm_time",
    "coarse_operator_report",
    "speedup",
    "weak_efficiency",
]
