"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestListing:
    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out and "wrf" in out

    def test_schedulers_listing(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        assert "critical-greedy" in out and "gain3" in out


class TestSolve:
    def test_solve_example(self, capsys):
        code = main(
            [
                "solve",
                "--workload",
                "example",
                "--algorithm",
                "critical-greedy",
                "--budget",
                "57",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MED=" in out
        assert "w4 -> VT3" in out

    def test_solve_infeasible_budget_errors(self, capsys):
        code = main(["solve", "--budget", "10"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_solve_wrf_gain3(self, capsys):
        code = main(
            ["solve", "--workload", "wrf", "--algorithm", "gain3", "--budget", "150"]
        )
        assert code == 0
        assert "gain3" in capsys.readouterr().out

    def test_unknown_algorithm_errors(self, capsys):
        code = main(["solve", "--algorithm", "magic", "--budget", "57"])
        assert code == 1
        assert "unknown scheduler" in capsys.readouterr().err

    def test_solve_json_output(self, capsys):
        import json

        assert main(["solve", "--budget", "57", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["algorithm"] == "critical-greedy"
        assert payload["cost"] <= 57.0
        assert payload["schedule"]["kind"] == "schedule"
        assert payload["schedule"]["assignment"]["w4"] == "VT3"
        # canonical rendering: sorted keys, compact separators, one line
        assert out.strip() == out.strip().replace(", ", ",")

    def test_solve_json_matches_codec(self, capsys):
        from repro.service.codec import dumps, encode_schedule
        from repro.algorithms import get_scheduler
        from repro.workloads import example_problem

        assert main(["solve", "--budget", "57", "--json"]) == 0
        out = capsys.readouterr().out
        problem = example_problem()
        result = get_scheduler("critical-greedy").solve(problem, 57.0)
        expected = dumps(encode_schedule(result.schedule, problem.catalog))
        assert expected in out


class TestServiceCommands:
    def test_serve_and_submit_round_trip(self, tmp_path, capsys):
        import json

        from repro.service.app import SchedulingService
        from repro.service.http import BackgroundServer, ServiceServer

        service = SchedulingService(max_workers=1, queue_size=4)
        server = BackgroundServer(ServiceServer(service))
        url = server.base_url
        try:
            assert main(["submit", "--url", url, "--budget", "57"]) == 0
            first = json.loads(capsys.readouterr().out)
            assert first["status"] == "ok" and first["cache_hit"] is False

            code = main(["submit", "--url", url, "--budget", "57", "--validate"])
            assert code == 0
            second = json.loads(capsys.readouterr().out)
            assert second["cache_hit"] is True
        finally:
            server.stop()
            service.close()

    def test_serve_has_no_async_flag(self, capsys):
        # One asyncio server serves every node; the selector is gone.
        with pytest.raises(SystemExit) as info:
            main(["serve", "--async", "--port", "0"])
        assert info.value.code == 2
        assert "--async" in capsys.readouterr().err

    def test_submit_unreachable_server_errors(self, capsys):
        code = main(
            ["submit", "--url", "http://127.0.0.1:9", "--budget", "57"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_infeasible_budget_reports_error(self, capsys):
        import json

        from repro.service.app import SchedulingService
        from repro.service.http import BackgroundServer, ServiceServer

        service = SchedulingService(max_workers=1, queue_size=4)
        server = BackgroundServer(ServiceServer(service))
        url = server.base_url
        try:
            code = main(["submit", "--url", url, "--budget", "0.01"])
            assert code == 1
            out = json.loads(capsys.readouterr().out)
            assert out["error"]["kind"] == "infeasible_budget"
        finally:
            server.stop()
            service.close()


class TestSimulate:
    def test_simulate_example(self, capsys):
        code = main(["simulate", "--workload", "example", "--budget", "57"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated MED" in out
        assert "== vms ==" in out

    def test_simulate_with_packing(self, capsys):
        code = main(["simulate", "--budget", "57", "--pack"])
        assert code == 0
        out = capsys.readouterr().out
        assert "analytical MED" in out


class TestExperimentCommand:
    def test_quick_experiment(self, capsys):
        code = main(["experiment", "table2", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "table2" in out

    def test_quick_complexity(self, capsys):
        code = main(["experiment", "complexity", "--quick"])
        assert code == 0
        assert "Theorem 1" in capsys.readouterr().out

    def test_invalid_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])


class TestReportCommand:
    def test_quick_report_writes_all_sections(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "report.txt"
        assert main(["report", "--quick", "--output", str(target)]) == 0
        text = target.read_text()
        for experiment_id in (
            "table2",
            "table3",
            "table4",
            "fig7",
            "fig9",
            "fig10",
            "fig11",
            "wrf",
            "complexity",
        ):
            assert f"== {experiment_id}:" in text
        assert "wrote" in capsys.readouterr().out


class TestVisualizeCommand:
    def test_gantt(self, capsys):
        from repro.cli import main

        assert main(["visualize", "--budget", "57", "--format", "gantt"]) == 0
        out = capsys.readouterr().out
        assert "|" in out and "#" in out

    def test_dot(self, capsys):
        from repro.cli import main

        assert main(["visualize", "--budget", "57", "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "VT" in out
