"""Rule registry for the lint layers (domain, AST, flow and meta rules).

A rule couples a stable id and metadata (severity, scope, summary,
rationale) with a check function.  Check functions are *generators of
findings*: they yield ``(path, message)`` or ``(path, message, suggestion)``
tuples — for AST rules, ``path`` is an ``int`` line number — and the runner
wraps each finding into a full :class:`~repro.lint.diagnostics.Diagnostic`
carrying the rule's id and severity.  Keeping checks this thin makes every
rule a few lines of pure logic and puts the id/severity bookkeeping in one
place.

Flow rules (:mod:`repro.lint.flow`) are the whole-program layer: their
checks receive a :class:`~repro.lint.callgraph.ProjectIndex` (symbol
table + call graph over every linted module at once) and yield
``(relpath, lineno, message, suggestion)`` tuples.  Meta rules have no
check function at all — the runner itself emits them (parse failures,
unused suppressions); they are registered so severity lookup and the
rule catalog stay uniform.

Rule id conventions (documented in ``docs/static_analysis.md``):

* ``RW1xx`` — workflow graph rules;
* ``RC2xx`` — VM-catalog rules;
* ``RP3xx`` — problem/budget rules;
* ``RS4xx`` — schedule rules;
* ``RS6xx`` — service-response rules (``repro.service`` wire payloads);
* ``RA9xx`` — codebase AST rules (``repro lint --self``);
* ``RT7xx`` — concurrency flow rules (``repro lint --self --deep``);
* ``RN8xx`` — numeric-determinism flow rules (``--self --deep``);
* ``RL0xx`` — lint-pipeline meta rules (parse failures, stale
  suppressions, stale baseline entries).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.exceptions import ConfigurationError
from repro.lint.diagnostics import Diagnostic, Severity

__all__ = [
    "Rule",
    "DOMAIN_SCOPES",
    "domain_rule",
    "ast_rule",
    "flow_rule",
    "meta_rule",
    "domain_rules",
    "ast_rules",
    "flow_rules",
    "meta_rules",
    "all_rules",
    "get_rule",
    "run_rule",
]

#: Valid scopes for domain rules, in report order.
DOMAIN_SCOPES = ("workflow", "catalog", "problem", "schedule", "service")

_RULE_ID = re.compile(r"^R[A-Z]\d{3}$")


@dataclass(frozen=True)
class Rule:
    """One registered lint rule (metadata + check function)."""

    id: str
    kind: str  # "domain" | "ast"
    scope: str  # one of DOMAIN_SCOPES, or "source" for AST rules
    severity: Severity
    summary: str
    rationale: str
    check: Callable[[Any], Iterable[tuple[Any, ...]]]


_DOMAIN: dict[str, Rule] = {}
_AST: dict[str, Rule] = {}
_FLOW: dict[str, Rule] = {}
_META: dict[str, Rule] = {}

_CheckT = TypeVar("_CheckT", bound=Callable[..., Iterable[tuple[Any, ...]]])


def _register(registry: dict[str, Rule], rule: Rule) -> None:
    if not _RULE_ID.match(rule.id):
        raise ConfigurationError(f"malformed lint rule id {rule.id!r}")
    if any(rule.id in reg for reg in (_DOMAIN, _AST, _FLOW, _META)):
        raise ConfigurationError(f"lint rule {rule.id!r} registered twice")
    registry[rule.id] = rule


def domain_rule(
    rule_id: str,
    *,
    scope: str,
    severity: Severity,
    summary: str,
    rationale: str,
) -> Callable[[_CheckT], _CheckT]:
    """Decorator registering a domain rule over model objects."""
    if scope not in DOMAIN_SCOPES:
        raise ConfigurationError(
            f"unknown domain-rule scope {scope!r}; expected one of {DOMAIN_SCOPES}"
        )

    def decorator(check: _CheckT) -> _CheckT:
        _register(
            _DOMAIN,
            Rule(
                id=rule_id,
                kind="domain",
                scope=scope,
                severity=severity,
                summary=summary,
                rationale=rationale,
                check=check,
            ),
        )
        return check

    return decorator


def ast_rule(
    rule_id: str,
    *,
    severity: Severity,
    summary: str,
    rationale: str,
    scope: str = "source",
) -> Callable[[_CheckT], _CheckT]:
    """Decorator registering a codebase AST rule over source modules.

    ``scope`` defaults to ``"source"`` (the whole codebase); a rule that
    only applies inside one package — e.g. ``RS602`` over
    ``repro.service`` — declares that package's scope for the rule
    catalog while still receiving every module (the check itself guards
    on the module path).
    """

    def decorator(check: _CheckT) -> _CheckT:
        _register(
            _AST,
            Rule(
                id=rule_id,
                kind="ast",
                scope=scope,
                severity=severity,
                summary=summary,
                rationale=rationale,
                check=check,
            ),
        )
        return check

    return decorator


def flow_rule(
    rule_id: str,
    *,
    severity: Severity,
    summary: str,
    rationale: str,
    scope: str = "project",
) -> Callable[[_CheckT], _CheckT]:
    """Decorator registering a whole-program flow rule.

    Flow checks receive a :class:`~repro.lint.callgraph.ProjectIndex` and
    yield ``(relpath, lineno, message, suggestion)`` findings; they only
    run under ``repro lint --self --deep`` (or
    ``lint_source_tree(paths, deep=True)``).
    """

    def decorator(check: _CheckT) -> _CheckT:
        _register(
            _FLOW,
            Rule(
                id=rule_id,
                kind="flow",
                scope=scope,
                severity=severity,
                summary=summary,
                rationale=rationale,
                check=check,
            ),
        )
        return check

    return decorator


def meta_rule(
    rule_id: str,
    *,
    severity: Severity,
    summary: str,
    rationale: str,
) -> Rule:
    """Register a runner-emitted meta rule (no check function of its own)."""
    rule = Rule(
        id=rule_id,
        kind="meta",
        scope="pipeline",
        severity=severity,
        summary=summary,
        rationale=rationale,
        check=lambda _target: (),
    )
    _register(_META, rule)
    return rule


def domain_rules(scope: str | None = None) -> tuple[Rule, ...]:
    """Registered domain rules, optionally restricted to one scope."""
    rules = sorted(_DOMAIN.values(), key=lambda r: r.id)
    if scope is None:
        return tuple(rules)
    return tuple(r for r in rules if r.scope == scope)


def ast_rules() -> tuple[Rule, ...]:
    """Registered AST rules, in id order."""
    return tuple(sorted(_AST.values(), key=lambda r: r.id))


def flow_rules() -> tuple[Rule, ...]:
    """Registered whole-program flow rules, in id order."""
    return tuple(sorted(_FLOW.values(), key=lambda r: r.id))


def meta_rules() -> tuple[Rule, ...]:
    """Registered runner-emitted meta rules, in id order."""
    return tuple(sorted(_META.values(), key=lambda r: r.id))


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule (domain, AST, flow, meta), in id order."""
    return domain_rules() + ast_rules() + flow_rules() + meta_rules()


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id."""
    rule = (
        _DOMAIN.get(rule_id)
        or _AST.get(rule_id)
        or _FLOW.get(rule_id)
        or _META.get(rule_id)
    )
    if rule is None:
        raise ConfigurationError(f"unknown lint rule {rule_id!r}")
    return rule


def run_rule(rule: Rule, target: Any) -> list[Diagnostic]:
    """Execute one rule's check, wrapping findings into diagnostics."""
    out: list[Diagnostic] = []
    for finding in rule.check(target):
        path, message = finding[0], finding[1]
        suggestion = finding[2] if len(finding) > 2 else None
        out.append(
            Diagnostic(
                rule=rule.id,
                severity=rule.severity,
                path=str(path),
                message=message,
                suggestion=suggestion,
            )
        )
    return out
