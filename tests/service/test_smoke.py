"""End-to-end acceptance: the CI smoke module against a real subprocess.

Boots ``repro serve`` in a child process, replays the permuted example
workload, solves it again at a new budget, and checks the cache/stats
assertions — the same run CI's ``service-smoke`` job performs.
"""

import json

from repro.service.smoke import main


def test_smoke_end_to_end(tmp_path):
    out = tmp_path / "service_stats.json"
    assert main(["--out", str(out)]) == 0
    stats = json.loads(out.read_text())
    assert stats["cache"]["hits"] >= 1
    assert stats["cache"]["misses"] >= 1
    assert stats["requests"] >= 3
    assert stats["problems"]["decode_hits"] >= 1
    assert "aio" in stats
