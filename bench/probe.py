"""Host-speed probe: times one fixed CPU burst on each usable CPU in turn.

    python3 bench/probe.py OUT

Until it is terminated, it pins itself to the next CPU of its affinity
set, runs :func:`burst`, appends ``<time.monotonic_ns()> <cpu> <thread CPU
seconds>`` to OUT and sleeps ``PERIOD`` seconds.  The burst is plain
interpreter work plus a JSON round trip, the kind of work the server does,
and it never changes with the code under test, so its CPU time tracks only
how fast the host runs: on a shared host that speed changes by up to 2x
over minutes.  Thread CPU time leaves out time spent waiting for a CPU.
"""

from __future__ import annotations

import json
import os
import sys
import time

#: Seconds between bursts; a burst takes about 2 ms, so the probe uses
#: about 4% of one CPU.
PERIOD = 0.05
_DOCUMENT = json.dumps({"rows": [{"id": i, "name": f"m{i}", "w": [i * 0.5, i * 1.5]} for i in range(60)]})


def burst() -> int:
    """The fixed unit of work that is timed."""
    total = 0
    table: dict[int, int] = {}
    for i in range(6000):
        table[i % 251] = total
        total += i * i % 7
    for _ in range(4):
        total += len(json.dumps(json.loads(_DOCUMENT)))
    return total


def main(argv: list[str]) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    with open(argv[0], "a", encoding="ascii") as out:
        for turn in range(sys.maxsize):
            cpu = cpus[turn % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            start = time.thread_time()
            burst()
            spent = time.thread_time() - start
            out.write(f"{time.monotonic_ns()} {cpu} {spent:.7f}\n")
            out.flush()
            time.sleep(PERIOD)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
