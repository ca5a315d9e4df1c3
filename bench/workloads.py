"""Seeded inputs, warm-up, timed phases and correctness gates of the workloads.

Every workload turns ``--seed`` into paper-scale problems
(``generate_problem((100, 2344, 9), rng)``, the largest Fig. 9 size) and a
request plan, then:

* ``warm_up`` sends its untimed set-up traffic (part of ``setup_s``);
* ``drive`` runs its timed phases through :mod:`loadgen`;
* ``check`` returns one message per wrong answer (empty when all pass).

The server only ever receives the request bodies.  ``repro`` is used here
to build inputs and to compute in-process references, always outside the
timed phases.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from loadgen import Request, Sample, closed_loop, open_loop, send
from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.core.serialize import problem_to_dict
from repro.live.store import LiveWorkflowManager
from repro.service.app import SchedulingService
from repro.service.codec import dumps, encode_schedule
from repro.service.keys import derive_workflow_id
from repro.workloads.generator import generate_problem

PAPER_SIZE = (100, 2344, 9)
#: Problem size of ``--quick`` (the self-test), small enough to solve in ms.
QUICK_SIZE = (20, 60, 4)
#: Client threads, hence open connections, at most: the box has 2 cores.
CLIENTS = 2
#: Seeded answers per solve workload checked byte for byte against an
#: in-process solve.
SAMPLE = 16
COST_TOL = 1e-6

HOT_WORKFLOWS, HOT_BUDGETS = 8, 8
PARETO_SHAPE = 1.2
COLD_WORKFLOWS = 8
#: Budget strata per workflow and cycle in cold-solve.
STRATA = 16
SWEEP_WORKFLOWS, SWEEP_BUDGETS = 8, 16
LIVE_WORKFLOWS = 16
#: Open-loop event rate: about a tenth of the 440-490 events/s the server
#: acks in a closed loop over the same events, low enough that queueing
#: does not amplify the box's own speed swings.
LIVE_RATE = 50.0
LIVE_DRIFT = 1.25

#: Closed-loop plan length per measured second, far above what the server
#: sustains today, so a run ends on time rather than on input.
HOT_CAP, COLD_CAP, SWEEP_CAP = 2000, 1000, 200


@dataclass
class Instance:
    """One generated problem and its canonical JSON text."""

    problem: Any
    text: bytes
    digest: bytes

    @property
    def budget_range(self) -> tuple[float, float]:
        return self.problem.cmin, self.problem.cmax

    @property
    def mid_budget(self) -> float:
        return (self.problem.cmin + self.problem.cmax) / 2


def make_instances(seed: int, count: int, size: tuple[int, int, int]) -> list[Instance]:
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        problem = generate_problem(size, rng)
        text = dumps(problem_to_dict(problem)).encode()
        instances.append(Instance(problem, text, hashlib.sha256(text).hexdigest().encode()))
    return instances


def solve_body(problem_text: bytes, budget: float) -> bytes:
    """``codec.dumps({"budget": budget, "problem": ...})`` without re-encoding the problem."""
    return b'{"budget":%s,"problem":%s}' % (repr(float(budget)).encode(), problem_text)


def batch_body(problem_text: bytes, budgets: Iterable[float]) -> bytes:
    return b'{"requests":[%s]}' % b",".join(solve_body(problem_text, b) for b in budgets)


def stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """``count`` budgets uniform in [lo, hi), one in each equal stratum, in random order.

    Solve cost depends on where a budget falls in the feasible band, so
    stratifying keeps every run's mix of cheap and costly budgets alike.
    """
    budgets = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(budgets)
    return budgets


@dataclass
class Outcome:
    """What a timed pass produced."""

    #: Every timed request.
    samples: list[Sample]
    #: Seconds per sample the latency metrics read (open loop: from due time).
    latency: list[float]
    #: Items answered (solve answers or event acks), and the timed wall time.
    items: int
    elapsed: float
    #: Whether ``samples`` came from an open loop (how late the generator ran).
    open_loop: bool = False


class LazyPlan:
    """A request list whose bodies are built only when sent."""

    def __init__(self, tags: Sequence[Any], build: Callable[[Any], Request]) -> None:
        self.tags = tags
        self.build = build

    def __len__(self) -> int:
        return len(self.tags)

    def __getitem__(self, index: int) -> Request:
        return self.build(self.tags[index])


def check_solve_answer(answer: Mapping[str, Any], budget: float, cache_hit: bool | None) -> str | None:
    """Why one solve answer is wrong, or ``None``."""
    if answer.get("status") != "ok":
        return f"status {answer.get('status')!r}: {answer.get('error')}"
    if answer.get("budget") != budget:
        return f"answered budget {answer.get('budget')!r}, asked {budget!r}"
    if not answer["result"]["cost"] <= budget + COST_TOL:
        return f"cost {answer['result']['cost']!r} exceeds budget {budget!r}"
    if cache_hit is not None and answer.get("cache_hit") is not cache_hit:
        return f"cache_hit is {answer.get('cache_hit')!r}, expected {cache_hit!r}"
    return None


def reference_result(service: SchedulingService, payload: Mapping[str, Any]) -> Mapping[str, Any]:
    """The in-process answer a served ``result`` must equal byte for byte."""
    return service.solve(payload)["result"]


def check_identity(pairs: Sequence[tuple[Mapping[str, Any], Mapping[str, Any]]]) -> list[str]:
    """Compare each ``(request payload, served result)`` with :func:`reference_result`."""
    failures = []
    with SchedulingService(max_workers=1) as service:
        for payload, served in pairs:
            if dumps(served) != dumps(reference_result(service, payload)):
                failures.append(f"budget {payload['budget']!r}: served result differs from in-process solve")
    return failures


def _status_failures(samples: Iterable[Sample]) -> list[str]:
    return [f"{s.tag!r}: HTTP status {s.status}" for s in samples if not s.ok]


class Workload:
    """Common shape; subclasses fill in the plan, warm-up and gate."""

    name = ""
    live = False
    #: Client threads driving this workload.
    clients = CLIENTS
    #: Items (solve answers or event acks) in one successful reply.
    items_per_request = 1

    def __init__(self, seed: int, seconds: float, size: tuple[int, int, int]) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rng = random.Random(f"{self.name}:{seed}")

    def describe(self) -> str:
        raise NotImplementedError

    def skeleton(self) -> Iterable[bytes]:
        """Every planned request (and its due time) with each problem text replaced by its digest."""
        raise NotImplementedError

    def manifest(self) -> str:
        """sha256 over every planned request body, in plan order."""
        digest = hashlib.sha256(self.name.encode())
        for body in self.skeleton():
            digest.update(hashlib.sha256(body).digest())
        return digest.hexdigest()

    def warm_up_requests(self) -> list[Request]:
        raise NotImplementedError

    def warm_up(self, port: int) -> list[Sample]:
        """The untimed set-up traffic, sent back to back."""
        return closed_loop(port, self.warm_up_requests(), self.clients, math.inf)[0]

    def drive(self, port: int) -> Outcome:
        raise NotImplementedError

    def check(self, port: int, warm_up: Sequence[Sample], outcome: Outcome) -> list[str]:
        raise NotImplementedError


class _SolveWorkload(Workload):
    """Closed-loop solve workloads: one plan, one load loop, one gate."""

    #: Whether every timed answer must (True) or must not (False) be a cache hit.
    timed_cache_hit: bool = False
    instances: list[Instance]
    plan: Sequence[Any]

    def items(self, tag: Any) -> list[tuple[int, float]]:
        """The ``(workflow, budget)`` items one request asks for."""
        raise NotImplementedError

    def request(self, tag: Any) -> Request:
        raise NotImplementedError

    def drive(self, port: int) -> Outcome:
        samples, elapsed = closed_loop(port, LazyPlan(self.plan, self.request), self.clients, self.seconds)
        items = self.items_per_request * sum(s.ok for s in samples)
        return Outcome(samples, [s.latency for s in samples], items, elapsed)

    def check(self, port: int, warm_up: Sequence[Sample], outcome: Outcome) -> list[str]:
        failures = _status_failures([*warm_up, *outcome.samples])
        pairs = []
        for samples, cache_hit in ((warm_up, None), (outcome.samples, self.timed_cache_hit)):
            for sample in samples:
                if not sample.ok:
                    continue
                body = json.loads(sample.body)
                answers = body["results"] if "results" in body else [body]
                items = self.items(sample.tag)
                if len(answers) != len(items):
                    failures.append(f"{sample.tag!r}: {len(answers)} answers for {len(items)} items")
                    continue
                for answer, (w, budget) in zip(answers, items):
                    why = check_solve_answer(answer, budget, cache_hit)
                    if why is not None:
                        failures.append(f"workflow {w} budget {budget!r}: {why}")
                    elif samples is outcome.samples:
                        payload = json.loads(solve_body(self.instances[w].text, budget))
                        pairs.append((payload, answer["result"]))
        chosen = random.Random(f"{self.name}:{self.seed}:sample").sample(pairs, min(SAMPLE, len(pairs)))
        return failures + check_identity(chosen)


class HotReplay(_SolveWorkload):
    name = "hot-replay"
    timed_cache_hit = True

    def __init__(self, seed: int, seconds: float, size: tuple[int, int, int]) -> None:
        super().__init__(seed, seconds, size)
        self.instances = make_instances(seed, HOT_WORKFLOWS, size)
        self.keys = [
            (w, lo + (hi - lo) * (i + 1) / (HOT_BUDGETS + 1))
            for w, (lo, hi) in enumerate(inst.budget_range for inst in self.instances)
            for i in range(HOT_BUDGETS)
        ]
        # Discrete Pareto(1.2) popularity over a seeded ranking of the keys.
        ranking = self.rng.sample(range(len(self.keys)), len(self.keys))
        weights = [k**-PARETO_SHAPE - (k + 1) ** -PARETO_SHAPE for k in range(1, len(ranking) + 1)]
        self.plan = self.rng.choices(ranking, weights, k=math.ceil(seconds * HOT_CAP))

    def describe(self) -> str:
        return (
            f"closed {self.clients} clients for {self.seconds:g} s; /v1/solve over {len(self.keys)} "
            f"cached keys, Pareto({PARETO_SHAPE:g}) popularity"
        )

    def items(self, tag: Any) -> list[tuple[int, float]]:
        if isinstance(tag, tuple):  # warm-up batch: every key of one workflow
            return [key for key in self.keys if key[0] == tag[1]]
        return [self.keys[tag]]

    def _body(self, key: int, text: bytes | None = None) -> bytes:
        w, budget = self.keys[key]
        return solve_body(self.instances[w].text if text is None else text, budget)

    def request(self, tag: int) -> Request:
        return Request("POST", "/v1/solve", self._body(tag), tag=tag)

    def skeleton(self) -> Iterable[bytes]:
        return (self._body(key, self.instances[self.keys[key][0]].digest) for key in self.plan)

    def warm_up_requests(self) -> list[Request]:
        # One batch per workflow solves (and caches) each of its keys once.
        return [
            Request("POST", "/v1/solve_batch", batch_body(inst.text, [b for _, b in self.items(("warm", w))]),
                    tag=("warm", w))
            for w, inst in enumerate(self.instances)
        ]


class ColdSolve(_SolveWorkload):
    name = "cold-solve"

    def __init__(self, seed: int, seconds: float, size: tuple[int, int, int]) -> None:
        super().__init__(seed, seconds, size)
        self.instances = make_instances(seed, COLD_WORKFLOWS, size)
        # One warm-up solve per client; the plan never repeats a budget.
        # Workflows take turns, and each draws its budgets STRATA at a time.
        self.warm = [(w, self.instances[w].mid_budget) for w in range(self.clients)]
        seen = set(self.warm)
        pending: list[list[float]] = [[] for _ in self.instances]
        self.plan: list[tuple[int, float]] = []
        while len(self.plan) < math.ceil(seconds * COLD_CAP):
            w = len(self.plan) % len(self.instances)
            if not pending[w]:
                pending[w] = stratified(self.rng, *self.instances[w].budget_range, STRATA)
            item = (w, pending[w].pop())
            if item not in seen:
                seen.add(item)
                self.plan.append(item)

    def describe(self) -> str:
        return f"closed {self.clients} clients for {self.seconds:g} s; /v1/solve, a distinct budget per request"

    def items(self, tag: Any) -> list[tuple[int, float]]:
        return [tag]

    def request(self, tag: tuple[int, float]) -> Request:
        w, budget = tag
        return Request("POST", "/v1/solve", solve_body(self.instances[w].text, budget), tag=tag)

    def skeleton(self) -> Iterable[bytes]:
        return (solve_body(self.instances[w].digest, b) for w, b in self.warm + self.plan)

    def warm_up_requests(self) -> list[Request]:
        return [self.request(item) for item in self.warm]


class SweepBatch(_SolveWorkload):
    name = "sweep-batch"
    clients = 1
    items_per_request = SWEEP_BUDGETS

    def __init__(self, seed: int, seconds: float, size: tuple[int, int, int]) -> None:
        super().__init__(seed, seconds, size)
        self.instances = make_instances(seed, SWEEP_WORKFLOWS, size)
        lo, hi = self.instances[0].budget_range
        self.warm = (0, tuple(lo + (hi - lo) * (i + 1) / (SWEEP_BUDGETS + 1) for i in range(SWEEP_BUDGETS)))
        # Workflows take turns; each batch draws one budget per stratum.
        seen = {(0, b) for b in self.warm[1]}
        self.plan: list[tuple[int, tuple[float, ...]]] = []
        while len(self.plan) < math.ceil(seconds * SWEEP_CAP):
            w = len(self.plan) % len(self.instances)
            budgets = stratified(self.rng, *self.instances[w].budget_range, SWEEP_BUDGETS)
            if seen.isdisjoint((w, b) for b in budgets):
                seen.update((w, b) for b in budgets)
                self.plan.append((w, tuple(budgets)))

    def describe(self) -> str:
        return (
            f"closed {self.clients} client for {self.seconds:g} s; /v1/solve_batch of {SWEEP_BUDGETS} "
            "distinct budgets on one workflow"
        )

    def items(self, tag: Any) -> list[tuple[int, float]]:
        w, budgets = tag
        return [(w, b) for b in budgets]

    def request(self, tag: tuple[int, tuple[float, ...]]) -> Request:
        w, budgets = tag
        return Request("POST", "/v1/solve_batch", batch_body(self.instances[w].text, budgets), tag=tag)

    def skeleton(self) -> Iterable[bytes]:
        return (batch_body(self.instances[w].digest, b) for w, b in [self.warm, *self.plan])

    def warm_up_requests(self) -> list[Request]:
        return [self.request(self.warm)]


class LiveEvents(Workload):
    name = "live-events"
    live = True

    def __init__(self, seed: int, seconds: float, size: tuple[int, int, int]) -> None:
        super().__init__(seed, seconds, size)
        self.instances = make_instances(seed, LIVE_WORKFLOWS, size)
        self.plans = [CriticalGreedyScheduler().solve(inst.problem, inst.mid_budget) for inst in self.instances]
        self.ids = [
            derive_workflow_id(json.loads(inst.text), CriticalGreedyScheduler.name, inst.mid_budget, {})
            for inst in self.instances
        ]
        streams = [self._stream(inst.problem, plan) for inst, plan in zip(self.instances, self.plans)]
        # Poisson arrivals given their count (sorted uniform times), so every
        # run sends the same number of events; interleaved round-robin over
        # the workflows, each pinned to one client so its seq order holds.
        count = min(round(LIVE_RATE * seconds), sum(len(s) for s in streams))
        self.lanes: list[list[Request]] = [[] for _ in range(self.clients)]
        for k, due in enumerate(sorted(self.rng.uniform(0, seconds) for _ in range(count))):
            w = k % LIVE_WORKFLOWS
            event = streams[w][k // LIVE_WORKFLOWS]
            body = json.dumps(event, sort_keys=True, separators=(",", ":")).encode()
            path = f"/v1/workflows/{self.ids[w]}/events"
            self.lanes[w % self.clients].append(Request("POST", path, body, due, (w, event["seq"])))

    @staticmethod
    def _stream(problem: Any, plan: Any) -> list[dict[str, Any]]:
        """A full started/completed stream in topological order, every module late."""
        workflow, matrices = problem.workflow, problem.matrices
        events: list[dict[str, Any]] = []
        for name in workflow.topological_order():
            module = workflow.module(name)
            if module.is_schedulable:
                duration = LIVE_DRIFT * matrices.time(name, plan.schedule[name])
            else:
                duration = float(module.fixed_time or 0.0)
            seq = len(events) + 1
            events.append({"seq": seq, "type": "started", "module": name})
            events.append({"seq": seq + 1, "type": "completed", "module": name, "duration": duration})
        return events

    def describe(self) -> str:
        events = sum(len(lane) for lane in self.lanes)
        return (
            f"open Poisson {LIVE_RATE:g} events/s for {self.seconds:g} s ({events} events) over "
            f"{LIVE_WORKFLOWS} workflows pinned to {self.clients} clients; fsync on"
        )

    def _registration(self, w: int, text: bytes | None = None) -> Request:
        inst = self.instances[w]
        return Request("POST", "/v1/workflows", solve_body(text or inst.text, inst.mid_budget), tag=("register", w))

    def skeleton(self) -> Iterable[bytes]:
        for w, inst in enumerate(self.instances):
            yield self._registration(w, inst.digest).body or b""
        for lane in self.lanes:
            for request in lane:
                yield b"%r %s %s" % (request.due, request.path.encode(), request.body)

    def warm_up_requests(self) -> list[Request]:
        return [self._registration(w) for w in range(LIVE_WORKFLOWS)]

    def drive(self, port: int) -> Outcome:
        samples, elapsed = open_loop(port, self.lanes)
        return Outcome(samples, [s.latency for s in samples], sum(s.ok for s in samples), elapsed, open_loop=True)

    def check(self, port: int, warm_up: Sequence[Sample], outcome: Outcome) -> list[str]:
        failures = _status_failures([*warm_up, *outcome.samples])
        for sample in warm_up:
            if sample.ok:
                w = sample.tag[1]
                answer = json.loads(sample.body)
                expected = encode_schedule(self.plans[w].schedule, self.instances[w].problem.catalog)
                if answer.get("workflow_id") != self.ids[w]:
                    failures.append(f"workflow {w}: registered as {answer.get('workflow_id')!r}")
                elif answer["result"]["schedule"] != expected:
                    failures.append(f"workflow {w}: registration plan differs from an in-process solve")
        for sample in outcome.samples:
            if sample.ok:
                ack = json.loads(sample.body)
                if ack.get("status") != "ok":
                    failures.append(f"event {sample.tag}: status {ack.get('status')!r}")
                elif not ack["over_budget"] and ack["projected_cost"] > ack["total_budget"] + COST_TOL:
                    failures.append(f"event {sample.tag}: projected cost exceeds the budget")
        # Each workflow's final status must equal an in-process manager fed
        # the same registration and the same events in seq order.
        reference = LiveWorkflowManager()
        sent: dict[int, list[Request]] = {}
        for lane in self.lanes:
            for request in lane:
                sent.setdefault(request.tag[0], []).append(request)
        for w in range(LIVE_WORKFLOWS):
            reference.register(json.loads(self._registration(w).body or b""))
            for request in sent.get(w, []):
                reference.event(self.ids[w], json.loads(request.body or b""))
            served = send(port, Request("GET", f"/v1/workflows/{self.ids[w]}"))
            if served.body != dumps(reference.status(self.ids[w])).encode():
                failures.append(f"workflow {w}: final status differs from the in-process replay")
        return failures


WORKLOADS: dict[str, type[Workload]] = {cls.name: cls for cls in (HotReplay, ColdSolve, SweepBatch, LiveEvents)}
