"""``repro.lint`` — unified static analysis & invariant checking.

Three layers, one diagnostic vocabulary (see ``docs/static_analysis.md``):

* **Domain rules** (``RW``/``RC``/``RP``/``RS`` ids) check model objects —
  workflows, VM catalogs, problem instances, schedules and service
  responses — for the invariants every algorithm in this library leans
  on: DAG structure, single entry/exit, positive magnitudes,
  non-dominated catalogs, budget feasibility, precedence and
  analytic-vs-DES consistency, and budget-honest service replies.
* **AST rules** (``RA`` ids) check the codebase itself, one file at a
  time, for library conventions: no float equality on billed quantities,
  rounding only in ``core/billing.py``, ``ReproError`` subclasses
  instead of builtins, no mutable defaults, ``__all__`` everywhere
  public (an *error* in ``core/``/``service/``).
* **Flow rules** (``RT``/``RN`` ids, ``--deep``) analyze the whole
  program at once over a project symbol table + call graph
  (:mod:`repro.lint.callgraph`): lock-discipline inference and
  lock-order cycles in the service fabric, blocking calls on HTTP
  handler paths, and float-reduction-order / seeding hazards in the
  bit-identity and experiment modules.

The delivery layer makes the deep pass adoptable: a committed
suppression baseline with justifications (:mod:`repro.lint.baseline`,
stale entries are themselves findings), and SARIF 2.1.0 output
(:mod:`repro.lint.sarif`) for CI annotation.

Usage::

    from repro.lint import lint_problem, lint_schedule, self_lint

    report = lint_problem(problem, budget=42.0)
    if not report.ok:
        print(report.render())

or from the command line::

    repro lint --workload example --budget 40
    repro lint --self --format json
    repro lint --self --deep --baseline lint-baseline.json \\
        --strict --format sarif
    python -m repro.lint --self
"""

from __future__ import annotations

from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.registry import (
    Rule,
    all_rules,
    ast_rules,
    domain_rules,
    flow_rules,
    get_rule,
    meta_rules,
)

# Importing the rule modules registers every rule exactly once.
from repro.lint import astrules as _astrules  # noqa: F401
from repro.lint import domain as _domain  # noqa: F401
from repro.lint import flow as _flow  # noqa: F401
from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.callgraph import ProjectIndex, build_index
from repro.lint.sarif import render_sarif, sarif_payload
from repro.lint.runner import (
    check_scheduler_result,
    lint_catalog,
    lint_problem,
    lint_schedule,
    lint_service_response,
    lint_source_tree,
    lint_workflow,
    self_lint,
)

__all__ = [
    "Diagnostic",
    "LintReport",
    "Severity",
    "Rule",
    "all_rules",
    "ast_rules",
    "domain_rules",
    "flow_rules",
    "meta_rules",
    "get_rule",
    "Baseline",
    "BaselineEntry",
    "ProjectIndex",
    "build_index",
    "render_sarif",
    "sarif_payload",
    "lint_workflow",
    "lint_catalog",
    "lint_problem",
    "lint_schedule",
    "lint_service_response",
    "lint_source_tree",
    "self_lint",
    "check_scheduler_result",
]
