"""Lint entry points: object linting, codebase linting, and the CLI.

High-level API
--------------
:func:`lint_workflow`, :func:`lint_catalog`
    Run the RW1xx / RC2xx rules over a constructed object *or* a raw
    payload mapping (broken payloads the constructors would reject are
    still linted).
:func:`lint_problem`
    Lint a full instance: workflow + catalog rules, plus the RP3xx budget
    rules when the instance is constructible.
:func:`lint_schedule`
    Lint a candidate schedule against its problem (RS4xx); ``deep=True``
    additionally executes the schedule on the DES simulator and checks
    precedence and analytic-vs-simulated makespan consistency.
:func:`lint_source_tree` / :func:`self_lint`
    Run the RA9xx AST rules over source files (``--self`` lints the
    installed ``repro`` package itself).  ``deep=True`` additionally
    builds the project index and runs the RT7xx/RN8xx flow rules; the
    pipeline supports a committed suppression baseline (``--baseline`` /
    ``--update-baseline``) and SARIF output (``--format sarif``).
:func:`check_scheduler_result`
    The debug hook used by :mod:`repro.algorithms.base`: raises
    :class:`~repro.exceptions.LintError` when a scheduler result carries
    error-severity diagnostics.

The runner also owns the RL0xx *meta* findings — failures of the lint
pipeline itself rather than of any one rule:

* ``RL001`` — a ``# lint: ignore[...]`` pragma that no longer suppresses
  anything (deep runs only, where every rule family is active);
* ``RL002`` — a baseline entry that no longer matches any finding
  (flow-rule entries only on deep runs, where their rules ran);
* ``RL003`` — a source file the pipeline cannot analyze (unreadable,
  non-UTF-8, or a syntax error).  Error severity: lint cannot vouch for
  what it cannot parse.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.exceptions import LintError, ReproError
from repro.lint.astrules import SourceModule, extract_pragmas
from repro.lint.baseline import Baseline
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.domain import (
    CatalogFacts,
    ProblemFacts,
    ScheduleFacts,
    ServiceResponseFacts,
    WorkflowFacts,
)
from repro.lint.registry import (
    all_rules,
    ast_rules,
    domain_rules,
    flow_rules,
    get_rule,
    meta_rule,
    run_rule,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.problem import MedCCProblem
    from repro.core.schedule import Schedule
    from repro.core.vm import VMTypeCatalog
    from repro.core.workflow import Workflow

__all__ = [
    "lint_workflow",
    "lint_catalog",
    "lint_problem",
    "lint_schedule",
    "lint_service_response",
    "lint_source_tree",
    "self_lint",
    "check_scheduler_result",
    "add_lint_arguments",
    "run",
    "main",
]

# ------------------------------------------------------------------ #
# Meta rules (emitted by this runner, registered for the catalog)
# ------------------------------------------------------------------ #

meta_rule(
    "RL001",
    severity=Severity.WARNING,
    summary="suppression pragma never fires",
    rationale="A `# lint: ignore[...]` that no longer suppresses anything "
    "is a stale exemption: the code it excused has moved or been fixed, "
    "and leaving it around re-opens the hole for the next edit.  Only "
    "reported on deep runs, where every rule family is active.",
)
meta_rule(
    "RL002",
    severity=Severity.WARNING,
    summary="baseline entry no longer matches any finding",
    rationale="Baselines exist to shrink.  An entry matching nothing "
    "means the debt was paid; deleting it locks in the fix.  Entries for "
    "flow rules are only judged on deep runs, where those rules ran.",
)
meta_rule(
    "RL003",
    severity=Severity.ERROR,
    summary="source file could not be analyzed",
    rationale="A file that is unreadable, not UTF-8, or has a syntax "
    "error is invisible to every rule; treating it as anything but an "
    "error would let a broken file turn the lint gate green.",
)


def _workflow_payload(target: "Workflow | Mapping[str, Any]") -> Mapping[str, Any]:
    if isinstance(target, Mapping):
        return target
    return target.to_dict()


def _catalog_payload(
    target: "VMTypeCatalog | Sequence[Mapping[str, Any]]",
) -> Sequence[Mapping[str, Any]]:
    if isinstance(target, Sequence):
        return target
    return [
        {
            "name": t.name,
            "power": t.power,
            "rate": t.rate,
            "startup_time": t.startup_time,
            "startup_cost": t.startup_cost,
        }
        for t in target
    ]


def lint_workflow(
    target: "Workflow | Mapping[str, Any]", *, name: str = ""
) -> LintReport:
    """Run all workflow (RW1xx) rules over an object or payload."""
    facts = WorkflowFacts.from_payload(_workflow_payload(target))
    diagnostics: list[Diagnostic] = []
    for rule in domain_rules("workflow"):
        diagnostics.extend(run_rule(rule, facts))
    return LintReport.collect(diagnostics, target=name or "workflow")


def lint_catalog(
    target: "VMTypeCatalog | Sequence[Mapping[str, Any]]", *, name: str = ""
) -> LintReport:
    """Run all catalog (RC2xx) rules over an object or payload."""
    facts = CatalogFacts.from_payload(_catalog_payload(target))
    diagnostics: list[Diagnostic] = []
    for rule in domain_rules("catalog"):
        diagnostics.extend(run_rule(rule, facts))
    return LintReport.collect(diagnostics, target=name or "catalog")


def lint_problem(
    target: "MedCCProblem | Mapping[str, Any]",
    *,
    budget: float | None = None,
    name: str = "",
) -> LintReport:
    """Lint a full MED-CC instance (workflow + catalog + budget rules).

    Accepts either a constructed :class:`~repro.core.problem.MedCCProblem`
    or a ``problem_to_dict()``-shaped payload.  Structural rules always
    run; the RP3xx rules need derived quantities (:math:`C_{min}`,
    :math:`C_{max}`) and run only when the instance is constructible.
    """
    problem: "MedCCProblem | None"
    if isinstance(target, Mapping):
        workflow_payload: Mapping[str, Any] = target.get("workflow", {})
        catalog_payload: Sequence[Mapping[str, Any]] = target.get("catalog", [])
        try:
            from repro.core.serialize import problem_from_dict

            problem = problem_from_dict(dict(target))
        except (ReproError, KeyError, TypeError, ValueError):
            problem = None
    else:
        problem = target
        workflow_payload = target.workflow.to_dict()
        catalog_payload = _catalog_payload(target.catalog)

    label = name or (
        f"problem[{problem.workflow.name}]" if problem is not None else "problem"
    )
    report = lint_workflow(workflow_payload, name=label).merged(
        lint_catalog(catalog_payload)
    )
    if problem is not None:
        facts = ProblemFacts(problem=problem, budget=budget)
        diagnostics: list[Diagnostic] = []
        for rule in domain_rules("problem"):
            diagnostics.extend(run_rule(rule, facts))
        report = report.merged(LintReport.collect(diagnostics))
    return LintReport(diagnostics=report.diagnostics, target=label)


def lint_schedule(
    problem: "MedCCProblem",
    schedule: "Schedule",
    *,
    budget: float | None = None,
    claimed_cost: float | None = None,
    deep: bool = False,
    name: str = "",
) -> LintReport:
    """Run the schedule (RS4xx) rules over a candidate schedule.

    With ``deep=True`` the schedule is additionally executed on the DES
    simulator (one VM per module, no packing) so the precedence (RS404)
    and makespan-consistency (RS405) rules can compare the trace against
    the analytical model.  Deep checks are skipped when the schedule is
    not even well-formed — executing it would raise.
    """
    sim = None
    probe = ScheduleFacts(problem=problem, schedule=schedule)
    if deep and probe.is_well_formed():
        from repro.sim.broker import WorkflowBroker

        sim = WorkflowBroker(problem=problem, schedule=schedule).run()
    facts = ScheduleFacts(
        problem=problem,
        schedule=schedule,
        budget=budget,
        claimed_cost=claimed_cost,
        sim=sim,
    )
    diagnostics: list[Diagnostic] = []
    for rule in domain_rules("schedule"):
        diagnostics.extend(run_rule(rule, facts))
    return LintReport.collect(diagnostics, target=name or "schedule")


def lint_service_response(
    problem: "MedCCProblem",
    response: Mapping[str, Any],
    *,
    budget: float | None = None,
    name: str = "",
) -> LintReport:
    """Run the service-response (RS6xx) rules over a ``/v1/solve`` reply.

    ``response`` is the decoded JSON body returned by the service (or by
    :meth:`SchedulingService.solve`); ``budget`` is the budget of the
    originating request and defaults to the ``budget`` field the service
    echoes back.  Used by ``repro submit --validate`` to verify, client
    side, that a (possibly cache-replayed) schedule still satisfies the
    request's budget.
    """
    facts = ServiceResponseFacts(problem=problem, response=response, budget=budget)
    diagnostics: list[Diagnostic] = []
    for rule in domain_rules("service"):
        diagnostics.extend(run_rule(rule, facts))
    return LintReport.collect(diagnostics, target=name or "service-response")


#: ``(rule id, relpath, lineno, message, suggestion)`` — a raw finding.
Finding = tuple[str, str, int, str, str | None]
#: lineno → suppressed rule ids (``None`` = all rules).
PragmaMap = dict[int, frozenset[str] | None]


def _discover_files(paths: Sequence[Path | str]) -> list[tuple[Path, str]]:
    """``(path, relpath)`` for every ``*.py`` under the given paths.

    Directories are walked recursively in sorted order so diagnostics
    are deterministic across runs.
    """
    out: list[tuple[Path, str]] = []
    for raw in paths:
        base = Path(raw)
        if base.is_dir():
            for file in sorted(base.rglob("*.py")):
                out.append((file, file.relative_to(base).as_posix()))
        else:
            out.append((base, base.name))
    return out


def _effective_severity(rule_id: str, relpath: str) -> Severity:
    """Per-location severity escalation for contract-critical packages.

    * RA905 (missing ``__all__``) escalates to error in core/ + service/:
      those packages are the library's public contract and the concurrent
      fabric.
    * RT703 (blocking call on a handler path) escalates to error under
      service/aio/: a blocking primitive there stalls the event loop for
      every in-flight request at once, so it fails the gate instead of
      warning.
    """
    severity = get_rule(rule_id).severity
    parts = Path(relpath).parts[:-1]
    if rule_id == "RA905" and ("core" in parts or "service" in parts):
        return Severity.ERROR
    if rule_id == "RT703" and "aio" in parts and "service" in parts:
        return Severity.ERROR
    return severity


def lint_source_tree(
    paths: Sequence[Path | str],
    *,
    deep: bool = False,
    baseline_path: Path | str | None = None,
    update_baseline: bool = False,
    name: str = "",
) -> LintReport:
    """The full source-tree lint pipeline (RA9xx, and with ``deep`` the
    RT7xx/RN8xx flow rules), with baselining.

    Stages:

    1. discover files; parse each and run the AST rules.  Unreadable /
       non-UTF-8 / syntactically broken files become ``RL003`` errors
       instead of crashes.
    2. with ``deep=True``: build the
       :class:`~repro.lint.callgraph.ProjectIndex` and run every
       registered flow rule.
    3. apply ``# lint: ignore[...]`` pragmas (stale ones become ``RL001``
       on deep runs), escalate RA905 in ``core/``/``service/``, then
       filter through the baseline (stale entries become ``RL002``;
       ``update_baseline=True`` rewrites the file first, carrying
       justifications forward).  Without ``deep`` the flow rules did not
       run, so their baseline entries are neither stale nor dropped.
    """
    files = _discover_files(paths)
    ast_rule_list = ast_rules()

    raw_findings: dict[str, list[Finding]] = {}
    pragmas: dict[str, PragmaMap] = {}
    parsed: dict[str, SourceModule] = {}
    failures: dict[str, tuple[int, str]] = {}

    for path, relpath in files:
        try:
            text = path.read_bytes().decode("utf-8")
        except OSError as exc:
            failures[relpath] = (1, f"cannot read file: {exc}")
            continue
        except UnicodeDecodeError as exc:
            failures[relpath] = (
                1,
                f"file is not valid UTF-8 ({exc.reason} at byte {exc.start})",
            )
            continue
        pragmas[relpath] = extract_pragmas(text)
        try:
            tree = ast.parse(text, filename=str(path))
        except SyntaxError as exc:
            failures[relpath] = (exc.lineno or 1, f"syntax error: {exc.msg}")
            continue
        module = SourceModule(
            path=path, relpath=relpath, tree=tree, ignores=pragmas[relpath]
        )
        parsed[relpath] = module
        findings: list[Finding] = []
        for rule in ast_rule_list:
            for finding in rule.check(module):
                suggestion = finding[2] if len(finding) > 2 else None
                findings.append(
                    (rule.id, relpath, int(finding[0]), str(finding[1]), suggestion)
                )
        raw_findings[relpath] = findings

    flow_findings: list[Finding] = []
    if deep:
        from repro.lint.callgraph import build_index

        index = build_index([parsed[rp] for rp in sorted(parsed)])
        for rule in flow_rules():
            for flow_finding in rule.check(index):
                relpath, lineno, message, suggestion = flow_finding
                flow_findings.append(
                    (rule.id, str(relpath), int(lineno), str(message), suggestion)
                )

    # ---- assemble diagnostics: pragmas, escalation, meta findings ---- #
    diagnostics: list[Diagnostic] = []
    used_pragmas: dict[str, set[int]] = {rp: set() for rp in pragmas}

    def suppressed(relpath: str, rule_id: str, lineno: int) -> bool:
        file_pragmas = pragmas.get(relpath, {})
        if lineno not in file_pragmas:
            return False
        listed = file_pragmas[lineno]
        if listed is None or rule_id in listed:
            used_pragmas[relpath].add(lineno)
            return True
        return False

    for relpath in sorted(failures):
        lineno, message = failures[relpath]
        diagnostics.append(
            Diagnostic(
                rule="RL003",
                severity=get_rule("RL003").severity,
                path=f"{relpath}:{lineno}",
                message=message,
                suggestion="fix the file so it parses as UTF-8 Python; lint "
                "cannot vouch for what it cannot read",
            )
        )
    ast_findings = [f for rp in sorted(raw_findings) for f in raw_findings[rp]]
    for rule_id, relpath, lineno, message, suggestion in (
        ast_findings + flow_findings
    ):
        if suppressed(relpath, rule_id, lineno):
            continue
        diagnostics.append(
            Diagnostic(
                rule=rule_id,
                severity=_effective_severity(rule_id, relpath),
                path=f"{relpath}:{lineno}",
                message=message,
                suggestion=suggestion,
            )
        )
    if deep:
        # Stale-pragma detection is only sound when every rule family ran.
        for relpath in sorted(pragmas):
            for lineno in sorted(pragmas[relpath]):
                if lineno in used_pragmas[relpath]:
                    continue
                listed = pragmas[relpath][lineno]
                label = (
                    "all rules" if listed is None else ", ".join(sorted(listed))
                )
                diagnostics.append(
                    Diagnostic(
                        rule="RL001",
                        severity=get_rule("RL001").severity,
                        path=f"{relpath}:{lineno}",
                        message=f"suppression pragma for {label} never fires",
                        suggestion="delete the stale `# lint: ignore` pragma",
                    )
                )

    # ---- baseline ---- #
    if baseline_path is not None:
        blpath = Path(baseline_path)
        if blpath.exists():
            baseline = Baseline.load(blpath)
        elif update_baseline:
            baseline = Baseline()
        else:
            raise LintError(
                f"baseline file {blpath} not found "
                "(pass --update-baseline to create it)"
            )
        # Entries for rules that did not run on this pass are carried as is.
        not_run: set[str] = (
            set() if deep else {rule.id for rule in flow_rules()}
        )
        if update_baseline:
            candidates = [
                d for d in diagnostics if not d.rule.startswith("RL")
            ]
            carried = tuple(e for e in baseline.entries if e.rule in not_run)
            fresh = Baseline.from_diagnostics(candidates, previous=baseline)
            baseline = Baseline(entries=fresh.entries + carried)
            baseline.save(blpath)
        kept, _suppressed_count, stale = baseline.apply(diagnostics)
        diagnostics = kept
        for entry in stale:
            if entry.rule in not_run:
                continue
            diagnostics.append(
                Diagnostic(
                    rule="RL002",
                    severity=get_rule("RL002").severity,
                    path=entry.file,
                    message=f"baseline entry for {entry.rule} no longer "
                    f"matches {entry.count} of its finding(s): "
                    f"{entry.message!r}",
                    suggestion="the debt was paid — remove the entry "
                    "(re-run with --update-baseline)",
                )
            )

    return LintReport.collect(
        diagnostics, target=name or ", ".join(str(p) for p in paths)
    )


def self_lint(
    *,
    deep: bool = False,
    baseline_path: Path | str | None = None,
    update_baseline: bool = False,
) -> LintReport:
    """Lint the installed ``repro`` package itself."""
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    return lint_source_tree(
        [package_dir],
        deep=deep,
        baseline_path=baseline_path,
        update_baseline=update_baseline,
        name=f"self ({package_dir})",
    )


def check_scheduler_result(
    problem: "MedCCProblem",
    result: Any,
    *,
    deep: bool = False,
    respects_budget: bool = True,
) -> None:
    """Debug hook: raise :class:`LintError` on a bad scheduler result.

    ``result`` is a :class:`~repro.algorithms.base.SchedulerResult` (typed
    loosely to avoid an import cycle: base wraps every registered
    scheduler's ``solve`` with this check).  Only error-severity
    diagnostics raise; warnings and info are ignored here.

    ``respects_budget=False`` skips the budget-feasibility rule (RS403):
    delay-optimal baselines like ``fastest``/``heft`` document that their
    output may exceed the budget.  Coverage, type-range and cost
    consistency are still enforced.
    """
    report = lint_schedule(
        problem,
        result.schedule,
        budget=result.budget if respects_budget else None,
        claimed_cost=result.total_cost,
        deep=deep,
        name=f"result[{result.algorithm}]",
    )
    if not report.ok:
        rendered = "; ".join(d.render() for d in report.errors)
        raise LintError(
            f"scheduler {result.algorithm!r} produced an invalid result: "
            f"{rendered}",
            diagnostics=report.errors,
        )


# --------------------------------------------------------------------- #
# CLI (shared by `repro lint` and `python -m repro.lint`)
# --------------------------------------------------------------------- #


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an argparse parser (CLI + ``-m`` entry)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="source files or directories to AST-lint",
    )
    parser.add_argument(
        "--self",
        dest="self_lint",
        action="store_true",
        help="AST-lint the repro package itself (RA9xx rules)",
    )
    parser.add_argument(
        "--workload",
        default=None,
        choices=("example", "wrf"),
        help="domain-lint a built-in instance",
    )
    parser.add_argument(
        "--file",
        default=None,
        help="domain-lint a JSON instance file (overrides --workload)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="also check budget-dependent rules (RP301/RP302)",
    )
    parser.add_argument(
        "--algorithm",
        default=None,
        help="schedule the instance with this algorithm and lint the result "
        "(requires --budget)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help="with --self/paths: build the project call graph and run the "
        "RT7xx/RN8xx flow rules; with --algorithm: execute the schedule on "
        "the DES simulator and check precedence/makespan consistency "
        "(RS404/RS405)",
    )
    parser.add_argument(
        "--baseline",
        dest="baseline_path",
        default=None,
        metavar="FILE",
        help="suppress findings recorded in this baseline file; stale "
        "entries are reported as RL002",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --baseline file from the current findings "
        "(carrying justifications forward), then exit clean",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too (CI gate mode)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json", "sarif"),
        help="output format",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def _render_rule_catalog() -> str:
    lines = ["id     scope     severity  summary"]
    for rule in all_rules():
        lines.append(
            f"{rule.id:<6} {rule.scope:<9} {str(rule.severity):<9} {rule.summary}"
        )
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        print(_render_rule_catalog())
        return 0

    reports: list[LintReport] = []

    wants_instance = args.workload or args.file
    if not (wants_instance or args.self_lint or args.paths):
        print(
            "error: nothing to lint (pass --workload/--file, --self, or paths)",
            file=sys.stderr,
        )
        return 2
    if args.algorithm and args.budget is None:
        print("error: --algorithm requires --budget", file=sys.stderr)
        return 2
    if (args.baseline_path or args.update_baseline) and not (
        args.self_lint or args.paths
    ):
        print(
            "error: --baseline/--update-baseline apply to --self/paths runs",
            file=sys.stderr,
        )
        return 2
    if args.update_baseline and not args.baseline_path:
        print("error: --update-baseline requires --baseline", file=sys.stderr)
        return 2

    if wants_instance:
        if args.file:
            import json

            try:
                payload = json.loads(Path(args.file).read_text())
            except (OSError, ValueError) as exc:
                print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
                return 2
            reports.append(
                lint_problem(payload, budget=args.budget, name=str(args.file))
            )
            target: "MedCCProblem | Mapping[str, Any]" = payload
        else:
            from repro.workloads import example_problem, wrf_problem

            problem = example_problem() if args.workload == "example" else wrf_problem()
            reports.append(
                lint_problem(problem, budget=args.budget, name=args.workload)
            )
            target = problem
        if args.algorithm:
            from repro.algorithms import get_scheduler

            if isinstance(target, Mapping):
                from repro.core.serialize import problem_from_dict

                problem = problem_from_dict(dict(target))
            else:
                problem = target
            assert args.budget is not None
            result = get_scheduler(args.algorithm).solve(problem, args.budget)
            reports.append(
                lint_schedule(
                    problem,
                    result.schedule,
                    budget=args.budget,
                    claimed_cost=result.total_cost,
                    deep=args.deep,
                    name=f"schedule[{args.algorithm}]",
                )
            )

    if args.self_lint:
        reports.append(
            self_lint(
                deep=args.deep,
                baseline_path=args.baseline_path,
                update_baseline=args.update_baseline,
            )
        )
    if args.paths:
        reports.append(
            lint_source_tree(
                args.paths,
                deep=args.deep,
                baseline_path=args.baseline_path,
                update_baseline=args.update_baseline,
            )
        )

    merged = reports[0]
    for extra in reports[1:]:
        merged = merged.merged(extra)
    if args.fmt == "sarif":
        from repro.lint.sarif import render_sarif

        print(render_sarif(merged, all_rules()))
    else:
        print(merged.render(args.fmt))
    code = merged.exit_code()
    if args.strict and code == 0 and len(merged):
        code = 1
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static analysis and invariant checking for the MED-CC "
        "reproduction (domain rules RW/RC/RP/RS, codebase AST rules RA, and "
        "with --deep the whole-program concurrency/determinism flow rules "
        "RT/RN).",
    )
    add_lint_arguments(parser)
    try:
        return run(parser.parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
