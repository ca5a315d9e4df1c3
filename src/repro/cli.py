"""Command-line interface: ``python -m repro …`` / the ``repro`` script.

Subcommands
-----------
``experiment <id> [--quick]``
    Run one of the registered paper experiments and print its report.
    ``--quick`` shrinks instance counts/sizes for a fast smoke run.
``experiments``
    List the available experiment ids.
``solve --workload {example,wrf} --algorithm <name> --budget <B>``
    Solve one built-in instance with one scheduler and print the schedule.
``schedulers``
    List the registered scheduling algorithms.
``simulate --workload {example,wrf} --budget <B> [--pack]``
    Schedule with Critical-Greedy, execute on the DES simulator and print
    the execution trace.
``lint [--workload … | --file … | --self | PATHS] [--format json]``
    Static analysis: domain-lint an instance (and optionally a scheduler's
    output) or AST-lint source code; see ``docs/static_analysis.md``.
``serve [--host H] [--port P] [--workers N] [--queue-size Q] …``
    Run one HTTP scheduling node (see ``docs/service.md``);
    ``--degrade-on-timeout`` answers deadline overruns with the least-cost
    fallback schedule (marked ``degraded``) instead of a 504.
``route NODE_URL [NODE_URL …] [--port P] [--hedge-delay S] …``
    Run the shard router in front of a fleet of nodes: consistent
    ``problem_hash``-prefix routing, retries with backoff, automatic
    failover, per-node circuit breakers, optional hedged requests.
``submit [--url U] --budget <B> [--max-retries N] [--deadline S] [--validate]``
    Submit one solve request to a running service (or router) and print
    the JSON response; retries 503s honouring ``Retry-After``;
    ``--validate`` lints the response client-side (RS601).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.algorithms import available_schedulers, get_scheduler
from repro.exceptions import ReproError
from repro.experiments import available_experiments, get_experiment

__all__ = ["main", "build_parser"]

#: Reduced parameter sets for ``experiment --quick`` runs.
_QUICK_PARAMS: dict[str, dict] = {
    "table2": {},
    "table3": {"instances_per_size": 2},
    "fig7": {"instances_per_size": 10},
    "table4": {"sizes": ((5, 6, 3), (10, 17, 4), (15, 65, 5), (20, 80, 5))},
    "fig9": {"sizes": ((5, 6, 3), (10, 17, 4), (15, 65, 5)), "instances": 3},
    "fig10": {"sizes": ((5, 6, 3), (10, 17, 4), (15, 65, 5)), "instances": 3},
    "fig11": {"sizes": ((5, 6, 3), (10, 17, 4), (15, 65, 5)), "instances": 3},
    "wrf": {},
    "complexity": {"trials": 4},
    "leaderboard": {"sizes": ((10, 17, 4),), "instances": 2, "levels": 4},
    "sensitivity": {"size": (10, 17, 4), "instances": 2, "levels": 4},
    "robustness": {"runs": 8},
    "frontier": {"sizes": ((5, 6, 3), (6, 11, 3)), "instances_per_size": 5},
}


def _problem_for(workload: str, file: str | None = None):
    if file is not None:
        from repro.core.serialize import load_problem

        return load_problem(file)
    from repro.workloads import example_problem, wrf_problem

    if workload == "example":
        return example_problem()
    if workload == "wrf":
        return wrf_problem()
    raise ReproError(f"unknown workload {workload!r}; use 'example' or 'wrf'")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MED-CC workflow scheduling (Lin & Wu, ICPP 2013) "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("experiment_id", choices=available_experiments())
    p_exp.add_argument(
        "--quick", action="store_true", help="reduced-scale smoke run"
    )

    sub.add_parser("experiments", help="list available experiments")
    sub.add_parser("schedulers", help="list available scheduling algorithms")

    p_solve = sub.add_parser("solve", help="solve a built-in or saved instance")
    p_solve.add_argument("--workload", default="example", choices=("example", "wrf"))
    p_solve.add_argument(
        "--file", default=None, help="JSON instance file (overrides --workload)"
    )
    p_solve.add_argument("--algorithm", default="critical-greedy")
    p_solve.add_argument("--budget", type=float, required=True)
    p_solve.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print one machine-readable JSON document (the service wire "
        "format) instead of the human-readable listing",
    )

    p_sim = sub.add_parser("simulate", help="schedule + simulate a workload")
    p_sim.add_argument("--workload", default="example", choices=("example", "wrf"))
    p_sim.add_argument(
        "--file", default=None, help="JSON instance file (overrides --workload)"
    )
    p_sim.add_argument("--budget", type=float, required=True)
    p_sim.add_argument(
        "--pack", action="store_true", help="apply VM-reuse packing"
    )

    p_rep = sub.add_parser(
        "report", help="run every experiment and write one consolidated report"
    )
    p_rep.add_argument(
        "--quick", action="store_true", help="reduced-scale smoke run"
    )
    p_rep.add_argument(
        "--output",
        default="reproduction_report.txt",
        help="target text file",
    )

    p_vis = sub.add_parser(
        "visualize", help="render a workload as DOT or an execution Gantt"
    )
    p_vis.add_argument("--workload", default="example", choices=("example", "wrf"))
    p_vis.add_argument(
        "--file", default=None, help="JSON instance file (overrides --workload)"
    )
    p_vis.add_argument("--budget", type=float, required=True)
    p_vis.add_argument("--format", default="gantt", choices=("gantt", "dot"))

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: lint an instance, a schedule, or the codebase",
    )
    from repro.lint.runner import add_lint_arguments

    add_lint_arguments(p_lint)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP scheduling service (see docs/service.md)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8423, help="listen port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=4, help="worker threads solving jobs"
    )
    p_serve.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="pending-job bound; excess submissions get HTTP 503",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=1024, help="in-memory LRU capacity"
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        help="optional directory for the persistent disk cache tier",
    )
    p_serve.add_argument(
        "--live-dir",
        default=None,
        help="optional directory for live-workflow event logs; nodes sharing "
        "it can recover each other's running workflows on failover",
    )
    p_serve.add_argument(
        "--live-peer",
        action="append",
        default=[],
        metavar="URL",
        help="sibling node base URL to replicate live-workflow logs to "
        "(and heal a corrupt/missing local log from); repeatable",
    )
    p_serve.add_argument(
        "--live-checkpoint-interval",
        type=int,
        default=0,
        metavar="N",
        help="snapshot + compact a live log every N accepted events "
        "(0 = never)",
    )
    p_serve.add_argument(
        "--live-retention",
        type=float,
        default=None,
        metavar="SECONDS",
        help="archive a completed workflow's log after this many idle "
        "seconds, and expire archived logs after another window "
        "(default: keep forever)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default per-job timeout in seconds (none by default)",
    )
    p_serve.add_argument(
        "--degrade-on-timeout",
        action="store_true",
        help="answer deadline overruns with the least-cost fallback schedule "
        "(marked degraded) instead of HTTP 504",
    )
    p_serve.add_argument(
        "--async",
        dest="async_core",
        action="store_true",
        help="run the asyncio core: an event loop with single-flight request "
        "coalescing in front of the same bounded solver pool "
        "(docs/service.md 'Async core')",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )

    p_route = sub.add_parser(
        "route",
        help="run the shard router in front of repro serve nodes "
        "(see docs/service.md)",
    )
    p_route.add_argument(
        "nodes", nargs="+", help="node base URLs, e.g. http://127.0.0.1:8423"
    )
    p_route.add_argument("--host", default="127.0.0.1")
    p_route.add_argument(
        "--port", type=int, default=8433, help="listen port (0 = ephemeral)"
    )
    p_route.add_argument(
        "--prefix-len",
        type=int,
        default=2,
        help="problem_hash hex digits used for sharding (2 = 256 shards)",
    )
    p_route.add_argument(
        "--max-retries", type=int, default=3, help="retries per routed request"
    )
    p_route.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="total retry time budget per request, in seconds",
    )
    p_route.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        help="enable hedged requests for previously-seen keys: seconds of "
        "primary silence before a secondary node is also asked",
    )
    p_route.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive node failures that open its circuit breaker",
    )
    p_route.add_argument(
        "--breaker-reset",
        type=float,
        default=5.0,
        help="seconds an open breaker waits before half-opening",
    )
    p_route.add_argument(
        "--node-timeout",
        type=float,
        default=30.0,
        help="per-request timeout against each node, in seconds",
    )
    p_route.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )

    p_submit = sub.add_parser(
        "submit", help="submit one solve request to a running service"
    )
    p_submit.add_argument(
        "--url", default="http://127.0.0.1:8423", help="service base URL"
    )
    p_submit.add_argument(
        "--workload", default="example", choices=("example", "wrf")
    )
    p_submit.add_argument(
        "--file", default=None, help="JSON instance file (overrides --workload)"
    )
    p_submit.add_argument("--algorithm", default=None)
    p_submit.add_argument("--budget", type=float, required=True)
    p_submit.add_argument(
        "--timeout", type=float, default=None, help="per-job timeout in seconds"
    )
    p_submit.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retry 503 responses (overloaded/draining service) this many "
        "times with exponential backoff, honouring Retry-After",
    )
    p_submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="total retry time budget in seconds (with --max-retries)",
    )
    p_submit.add_argument(
        "--validate",
        action="store_true",
        help="lint the response client-side (RS601: replayed schedule must "
        "still satisfy the request budget)",
    )

    p_gen = sub.add_parser(
        "generate", help="generate a random instance and save it as JSON"
    )
    p_gen.add_argument("--modules", type=int, required=True, help="m (incl. entry/exit)")
    p_gen.add_argument("--edges", type=int, required=True, help="|Ew|")
    p_gen.add_argument("--types", type=int, required=True, help="n VM types")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True, help="target JSON path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "experiments":
            for experiment_id in available_experiments():
                print(experiment_id)
        elif args.command == "schedulers":
            for name in available_schedulers():
                print(name)
        elif args.command == "experiment":
            params = _QUICK_PARAMS.get(args.experiment_id, {}) if args.quick else {}
            report = get_experiment(args.experiment_id)(**params)
            print(report.render())
        elif args.command == "report":
            from pathlib import Path

            sections = []
            for experiment_id in available_experiments():
                params = (
                    _QUICK_PARAMS.get(experiment_id, {}) if args.quick else {}
                )
                print(f"running {experiment_id} ...", flush=True)
                report = get_experiment(experiment_id)(**params)
                sections.append(report.render())
            Path(args.output).write_text(
                "\n\n" + ("\n\n" + "=" * 78 + "\n\n").join(sections) + "\n"
            )
            print(f"wrote {args.output} ({len(sections)} experiments)")
        elif args.command == "lint":
            import repro.lint  # noqa: F401  (registers all rules)
            from repro.lint.runner import run as run_lint

            return run_lint(args)
        elif args.command == "generate":
            import numpy as np

            from repro.core.serialize import save_problem
            from repro.workloads.generator import generate_problem

            problem = generate_problem(
                (args.modules, args.edges, args.types),
                np.random.default_rng(args.seed),
            )
            path = save_problem(problem, args.output)
            lo, hi = problem.budget_range()
            print(
                f"wrote {path} (size {problem.problem_size}, "
                f"budget range [{lo:.2f}, {hi:.2f}])"
            )
        elif args.command == "solve":
            problem = _problem_for(args.workload, args.file)
            scheduler = get_scheduler(args.algorithm)
            result = scheduler.solve(problem, args.budget)
            if args.as_json:
                from repro.service.codec import dumps, encode_schedule

                print(
                    dumps(
                        {
                            "algorithm": result.algorithm,
                            "budget": args.budget,
                            "makespan": result.med,
                            "cost": result.total_cost,
                            "schedule": encode_schedule(
                                result.schedule, problem.catalog
                            ),
                            "steps": len(result.steps),
                        }
                    )
                )
            else:
                print(
                    f"algorithm={result.algorithm} budget={args.budget:g} "
                    f"MED={result.med:.4f} cost={result.total_cost:.4f}"
                )
                for module, type_name in sorted(
                    result.schedule.as_type_names(problem.catalog.names).items()
                ):
                    print(f"  {module} -> {type_name}")
                for step in result.steps:
                    print("  " + step.describe(problem.catalog.names))
        elif args.command == "serve":
            serve_kwargs = dict(
                host=args.host,
                port=args.port,
                max_workers=args.workers,
                queue_size=args.queue_size,
                cache_size=args.cache_size,
                cache_dir=args.cache_dir,
                default_timeout=args.timeout,
                degrade_on_timeout=args.degrade_on_timeout,
                live_dir=args.live_dir,
                live_peers=args.live_peer,
                live_checkpoint_interval=args.live_checkpoint_interval,
                live_retention=args.live_retention,
                verbose=args.verbose,
            )
            if args.async_core:
                from repro.service.aio.http import serve_async

                return serve_async(**serve_kwargs)
            from repro.service.http import serve

            return serve(**serve_kwargs)
        elif args.command == "route":
            from repro.service.router import serve_router

            return serve_router(
                args.nodes,
                host=args.host,
                port=args.port,
                prefix_len=args.prefix_len,
                max_retries=args.max_retries,
                retry_deadline=args.deadline,
                hedge_delay=args.hedge_delay,
                breaker_threshold=args.breaker_threshold,
                breaker_reset=args.breaker_reset,
                node_timeout=args.node_timeout,
                verbose=args.verbose,
            )
        elif args.command == "submit":
            from repro.core.serialize import problem_to_dict
            from repro.service.codec import dumps
            from repro.service.http import ServiceClient
            from repro.service.resilience import RetryPolicy

            problem = _problem_for(args.workload, args.file)
            request: dict = {
                "problem": problem_to_dict(problem),
                "budget": args.budget,
            }
            if args.algorithm is not None:
                request["algorithm"] = args.algorithm
            if args.timeout is not None:
                request["timeout"] = args.timeout
            retry = (
                RetryPolicy(max_retries=args.max_retries, deadline=args.deadline)
                if args.max_retries > 0
                else None
            )
            response = ServiceClient(args.url, retry=retry).solve(request)
            print(dumps(response))
            if response.get("status") != "ok":
                return 1
            if args.validate:
                from repro.lint import lint_service_response

                report = lint_service_response(
                    problem, response, budget=args.budget
                )
                if not report.ok:
                    print(report.render(), file=sys.stderr)
                    return 1
        elif args.command == "visualize":
            from repro.algorithms import CriticalGreedyScheduler
            from repro.analysis.visualize import gantt, workflow_to_dot
            from repro.sim import WorkflowBroker

            problem = _problem_for(args.workload, args.file)
            result = CriticalGreedyScheduler().solve(problem, args.budget)
            if args.format == "dot":
                print(
                    workflow_to_dot(
                        problem.workflow,
                        schedule=result.schedule,
                        type_names=problem.catalog.names,
                    )
                )
            else:
                sim = WorkflowBroker(
                    problem=problem, schedule=result.schedule
                ).run()
                print(gantt(sim.trace))
        elif args.command == "simulate":
            from repro.algorithms import CriticalGreedyScheduler
            from repro.sim import WorkflowBroker, pack_schedule

            problem = _problem_for(args.workload, args.file)
            result = CriticalGreedyScheduler().solve(problem, args.budget)
            plan = (
                pack_schedule(problem, result.schedule, mode="adjacent")
                if args.pack
                else None
            )
            sim = WorkflowBroker(
                problem=problem, schedule=result.schedule, vm_plan=plan
            ).run()
            print(sim.trace.render())
            print(
                f"analytical MED={result.med:.4f} cost={result.total_cost:.4f}; "
                f"simulated MED={sim.makespan:.4f} cost={sim.total_cost:.4f}"
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
