"""Core MED-CC models: workflows, VM catalogs, billing, schedules.

This subpackage implements Section III of the paper — the analytical cost
and time models — plus the problem formulation (Definition 1).  Everything
here is pure and deterministic; algorithms live in
:mod:`repro.algorithms` and execution semantics in :mod:`repro.sim`.
"""

from repro.core.billing import (
    DEFAULT_BILLING,
    BillingPolicy,
    BlockBilling,
    ExactBilling,
    HourlyBilling,
)
from repro.core.critical_path import CriticalPathAnalysis, analyze_critical_path
from repro.core.fastpath import (
    FastPathResult,
    GraphIndex,
    fast_critical_path,
)
from repro.core.matrices import TimeCostMatrices, compute_matrices
from repro.core.module import DataDependency, Module
from repro.core.problem import MedCCProblem, TransferModel
from repro.core.schedule import Schedule, ScheduleEvaluation
from repro.core.serialize import (
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from repro.core.vm import VMType, VMTypeCatalog, linear_priced_catalog
from repro.core.workflow import Workflow, WorkflowBuilder

__all__ = [
    "BillingPolicy",
    "HourlyBilling",
    "ExactBilling",
    "BlockBilling",
    "DEFAULT_BILLING",
    "CriticalPathAnalysis",
    "analyze_critical_path",
    "FastPathResult",
    "GraphIndex",
    "fast_critical_path",
    "TimeCostMatrices",
    "compute_matrices",
    "Module",
    "DataDependency",
    "MedCCProblem",
    "TransferModel",
    "Schedule",
    "ScheduleEvaluation",
    "load_problem",
    "problem_from_dict",
    "problem_to_dict",
    "save_problem",
    "VMType",
    "VMTypeCatalog",
    "linear_priced_catalog",
    "Workflow",
    "WorkflowBuilder",
]
