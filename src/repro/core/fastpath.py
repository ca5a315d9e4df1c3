"""Fast critical-path kernel: CSR graph engine + array sweeps.

Every iterative scheduler in this library (Critical-Greedy, GAIN/Loss,
lookahead, annealing, the ensemble) spends almost all of its time
recomputing the critical path of the currently mapped workflow — the
paper's own complexity argument has Algorithm 1 running up to
``m * (n - 1)`` CP sweeps.  The reference implementation in
:mod:`repro.core.critical_path` re-walks the networkx graph with
per-node ``sorted(graph.predecessors(...))`` calls and dict-keyed
est/eft/lst/lft maps on every sweep; at ``m = 1000`` that dominates the
end-to-end scheduling cost.

This module removes that bottleneck without changing a single bit of any
result:

* :class:`GraphIndex` — a frozen CSR-style representation of a
  :class:`~repro.core.workflow.Workflow` (topological order, predecessor
  and successor index arrays, per-edge keys for transfer lookups, fixed
  durations, schedulable-row mapping) computed **once** per workflow and
  cached on the workflow object;
* :func:`sweep_arrays` — the low-level forward/backward passes over the
  CSR arrays.  Deliberately a flat CPython loop over preallocated lists:
  the paper's generator lays every workflow out over a sequential
  backbone ``w0 -> w1 -> ...``, so the DAG depth equals ``m`` and
  per-topological-layer vectorization degenerates to one node per layer;
  a branch-free CSR scan beats both networkx and per-node numpy calls by
  an order of magnitude in that regime.  Float semantics (operation
  order, tie-breaks) replicate the reference exactly, so est/eft/lst/lft
  and the extracted critical path are **bit-identical**;
* :class:`FastPathResult` — est/eft/lst/lft/durations as numpy vectors
  plus makespan, critical mask and the argmax-predecessor chain, with
  :meth:`FastPathResult.as_analysis` producing a *lazily materialized*
  :class:`~repro.core.critical_path.CriticalPathAnalysis` so every
  existing caller (and the lint ``--deep`` checks) keeps working
  unchanged — the name-keyed dicts are only built if someone reads them;
* :func:`fast_critical_path` — a drop-in array-backed equivalent of
  :func:`~repro.core.critical_path.analyze_critical_path`;
* :class:`IncrementalSweep` — the *incremental* engine: a state object
  owning preallocated est/eft/lst/lft buffers that, given "node ``v``
  changed duration from ``x`` to ``y``", repropagates only the affected
  region (a contiguous topological span tracked by watermarks) instead
  of resweeping the whole DAG, falling back to a full sweep when the
  dirty span exceeds a size threshold.  Because each repropagated node
  is recomputed with *exactly* the per-node accumulation of
  :func:`sweep_arrays` and propagation stops only where recomputed
  values are bitwise equal to the stored ones, the buffers are at all
  times bit-identical to a from-scratch sweep — the property suite in
  ``tests/core/test_incremental.py`` asserts it after random update
  sequences.

The reference implementation in :mod:`repro.core.critical_path` is
retained untouched as the ground truth: the property tests compare the
kernel against it directly, the Critical-Greedy test oracle
(:mod:`repro.algorithms.oracle`) evaluates every schedule through it,
and ``benchmarks/bench_fastpath.py`` times both.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.critical_path import _SLACK_TOL, CriticalPathAnalysis
from repro.core.workflow import Workflow
from repro.exceptions import ScheduleError

__all__ = [
    "SLACK_TOL",
    "GraphIndex",
    "FastPathResult",
    "IncrementalSweep",
    "graph_index",
    "transfer_vector",
    "sweep_arrays",
    "critical_row_mask",
    "fast_critical_path",
    "evaluate_assignment_vectors",
]


#: Critical-slack tolerance, re-exported from the reference implementation
#: so kernel callers share the exact same threshold.
SLACK_TOL = _SLACK_TOL

#: Share of the graph at which an :class:`IncrementalSweep` update stops
#: span-scanning and resweeps the whole graph.
_FULL_SWEEP_FRACTION = 0.9

@dataclass(frozen=True)
class GraphIndex:
    """Frozen CSR-style index of a workflow, computed once and cached.

    Node ids are positions in the workflow's deterministic topological
    order; predecessor lists are sorted by module *name* within each node
    so the forward pass reproduces the reference tie-break
    (lexicographically-first predecessor wins a tied longest path).

    Attributes
    ----------
    names:
        Module names in topological order (node id -> name).
    node_index:
        Inverse mapping, name -> node id.
    entry, exit:
        Node ids of the unique entry/exit modules.
    pred_ptr, pred_idx:
        CSR predecessor adjacency: predecessors of node ``v`` are
        ``pred_idx[pred_ptr[v]:pred_ptr[v + 1]]`` (name-sorted).
    pred_edges:
        ``(src, dst)`` name pair of each predecessor-CSR slot — the key
        order of every per-edge transfer vector.
    succ_ptr, succ_idx, succ_slot:
        CSR successor adjacency; ``succ_slot`` maps each successor slot
        to its predecessor-CSR slot so one transfer vector serves both
        passes.
    base_durations:
        Per-node fixed durations (0.0 for schedulable modules): the
        template a schedule's execution times are scattered into.
    sched_nodes:
        Node id of each schedulable module, in topological order — i.e.
        ``sched_nodes[i]`` is the node of TE/CE row ``i``.
    row_of_node:
        Inverse of ``sched_nodes``: node id -> TE/CE row, ``-1`` for
        fixed-duration modules.
    """

    names: tuple[str, ...]
    node_index: dict[str, int]
    entry: int
    exit: int
    pred_ptr: tuple[int, ...]
    pred_idx: tuple[int, ...]
    pred_edges: tuple[tuple[str, str], ...]
    succ_ptr: tuple[int, ...]
    succ_idx: tuple[int, ...]
    succ_slot: tuple[int, ...]
    base_durations: tuple[float, ...]
    sched_nodes: tuple[int, ...]
    row_of_node: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        """Total module count (fixed entry/exit included)."""
        return len(self.names)

    @property
    def num_edges(self) -> int:
        """Dependency-edge count."""
        return len(self.pred_idx)

    @cached_property
    def sched_nodes_array(self) -> np.ndarray:
        """``sched_nodes`` as an integer numpy array (cached).

        Lets vectorized callers gather per-row slices of node-order
        vectors (``est[sched_nodes_array]``) without rebuilding the
        index array on every scheduler iteration.
        """
        return np.asarray(self.sched_nodes, dtype=np.intp)

    @cached_property
    def max_succ(self) -> tuple[int, ...]:
        """Highest-id successor of each node (``-1`` for sinks), cached.

        The forward watermark of :class:`IncrementalSweep`: when a node's
        EFT changes, every node up to ``max_succ[v]`` may be affected.
        CSR adjacency is *name*-sorted, not id-sorted, so this must take
        an explicit max over the slice.
        """
        succ_ptr, succ_idx = self.succ_ptr, self.succ_idx
        return tuple(
            max(succ_idx[succ_ptr[v] : succ_ptr[v + 1]], default=-1)
            for v in range(self.num_nodes)
        )

    @cached_property
    def min_pred(self) -> tuple[int, ...]:
        """Lowest-id predecessor of each node (``num_nodes`` for sources).

        The backward watermark of :class:`IncrementalSweep`: when a
        node's LST changes, every node down to ``min_pred[v]`` may be
        affected.
        """
        pred_ptr, pred_idx = self.pred_ptr, self.pred_idx
        n = self.num_nodes
        return tuple(
            min(pred_idx[pred_ptr[v] : pred_ptr[v + 1]], default=n)
            for v in range(n)
        )

    @classmethod
    def from_workflow(cls, workflow: Workflow) -> "GraphIndex":
        """Build the CSR index (called once per workflow via the cache)."""
        names = workflow.topological_order()
        node_index = {name: v for v, name in enumerate(names)}
        graph = workflow.graph

        pred_ptr: list[int] = [0]
        pred_idx: list[int] = []
        pred_edges: list[tuple[str, str]] = []
        for name in names:
            for pred in sorted(graph.predecessors(name)):
                pred_idx.append(node_index[pred])
                pred_edges.append((pred, name))
            pred_ptr.append(len(pred_idx))

        edge_slot = {edge: k for k, edge in enumerate(pred_edges)}
        succ_ptr: list[int] = [0]
        succ_idx: list[int] = []
        succ_slot: list[int] = []
        for name in names:
            for succ in sorted(graph.successors(name)):
                succ_idx.append(node_index[succ])
                succ_slot.append(edge_slot[(name, succ)])
            succ_ptr.append(len(succ_idx))

        base_durations: list[float] = []
        sched_nodes: list[int] = []
        row_of_node = [-1] * len(names)
        for v, name in enumerate(names):
            module = workflow.module(name)
            if module.is_schedulable:
                row_of_node[v] = len(sched_nodes)
                sched_nodes.append(v)
                base_durations.append(0.0)
            else:
                base_durations.append(float(module.fixed_time or 0.0))

        return cls(
            names=names,
            node_index=node_index,
            entry=node_index[workflow.entry],
            exit=node_index[workflow.exit],
            pred_ptr=tuple(pred_ptr),
            pred_idx=tuple(pred_idx),
            pred_edges=tuple(pred_edges),
            succ_ptr=tuple(succ_ptr),
            succ_idx=tuple(succ_idx),
            succ_slot=tuple(succ_slot),
            base_durations=tuple(base_durations),
            sched_nodes=tuple(sched_nodes),
            row_of_node=tuple(row_of_node),
        )


def graph_index(workflow: Workflow) -> GraphIndex:
    """The (cached) CSR index of a workflow.

    The index is immutable and depends only on workflow structure, so it
    is computed on first request and stored on the workflow object; every
    schedule evaluation and every scheduler iteration reuses it.
    """
    cached = workflow._fastpath_cache
    if cached is None:
        cached = GraphIndex.from_workflow(workflow)
        workflow._fastpath_cache = cached
    return cached


def transfer_vector(
    index: GraphIndex,
    transfer_times: Mapping[tuple[str, str], float] | None,
) -> list[float] | None:
    """Per-edge transfer times aligned with ``index.pred_edges``.

    Returns ``None`` for the free-transfer case so the kernel can take
    its branch-free no-transfer path.  Omitted edges default to 0.0,
    matching the reference implementation.
    """
    if not transfer_times:
        return None
    get = transfer_times.get
    return [float(get(edge, 0.0)) for edge in index.pred_edges]


def _duration_vector(index: GraphIndex, durations: Mapping[str, float]) -> list[float]:
    """Name-keyed durations in node-id order, validated like the reference."""
    vector: list[float] = []
    for name in index.names:
        if name not in durations:
            raise ScheduleError(f"no duration supplied for module {name!r}")
        value = durations[name]
        if value < 0:
            raise ScheduleError(f"module {name!r} has negative duration {value!r}")
        vector.append(float(value))
    return vector


def sweep_arrays(
    index: GraphIndex,
    durations: list[float],
    transfers: list[float] | None = None,
) -> tuple[list[float], list[float], list[float], list[float], list[int], float]:
    """Forward/backward critical-path passes over the CSR arrays.

    Parameters
    ----------
    index:
        The workflow's CSR index.
    durations:
        Per-node execution durations in topological (node-id) order.
    transfers:
        Per-edge transfer times in ``index.pred_edges`` order, or
        ``None`` when all transfers are free.

    Returns
    -------
    ``(est, eft, lst, lft, argmax_pred, makespan)`` — plain lists in
    node-id order plus the makespan.  ``argmax_pred[v]`` is the node id
    of the predecessor realizing ``est[v]`` (``-1`` for the entry),
    which lets callers walk one deterministic longest path; tie-breaks
    are identical to the reference (first name-sorted predecessor wins).

    This is the innermost hot loop of the library: a flat CPython scan
    over preallocated lists, ``O(m + |Ew|)`` with a small constant.  All
    arithmetic replicates the reference implementation operation-for-
    operation, so the outputs are bit-identical to
    :func:`~repro.core.critical_path.analyze_critical_path`.
    """
    n = index.num_nodes
    est: list[float] = [0.0] * n
    eft: list[float] = [0.0] * n
    argmax_pred: list[int] = [-1] * n
    _forward_full(index, durations, transfers, est, eft, argmax_pred, 0)
    makespan = eft[index.exit]
    lft: list[float] = [0.0] * n
    lst: list[float] = [0.0] * n
    _backward_full(index, durations, transfers, makespan, lst, lft)
    return est, eft, lst, lft, argmax_pred, makespan


def critical_row_mask(
    index: GraphIndex,
    est: Sequence[float] | np.ndarray,
    lst: Sequence[float] | np.ndarray,
    *,
    tol: float = SLACK_TOL,
) -> np.ndarray:
    """Boolean mask over TE/CE rows: which schedulable modules are critical.

    ``mask[i]`` is true iff the module of row ``i`` has slack
    ``lst - est <= tol``.  This is the one candidate routine shared by
    Critical-Greedy's production loop (through
    :meth:`IncrementalSweep.critical_rows`) and
    :meth:`FastPathResult.critical_schedulable_rows`; the comparison is
    performed on the exact same float values as the reference scan, so
    the selected rows are identical.
    """
    sched = index.sched_nodes_array
    est_arr = np.asarray(est, dtype=float)
    lst_arr = np.asarray(lst, dtype=float)
    mask: np.ndarray = (lst_arr[sched] - est_arr[sched]) <= tol
    return mask


def _forward_full(
    index: GraphIndex,
    durations: list[float],
    transfers: list[float] | None,
    est: list[float],
    eft: list[float],
    argmax_pred: list[int],
    start: int,
) -> None:
    """Forward pass over nodes ``start ..`` to the last, in place.

    The :func:`sweep_arrays` forward body and :func:`_forward_span`'s
    tail: unconditional writes, no change-check or watermark bookkeeping.
    """
    n = index.num_nodes
    pred_ptr = index.pred_ptr
    pred_idx = index.pred_idx
    if transfers is None:
        for v in range(start, n):
            lo, hi = pred_ptr[v], pred_ptr[v + 1]
            best = 0.0
            best_pred = -1
            for k in range(lo, hi):
                p = pred_idx[k]
                ready = eft[p]
                if best_pred < 0 or ready > best:
                    best = ready
                    best_pred = p
            est[v] = best
            eft[v] = best + durations[v]
            argmax_pred[v] = best_pred
    else:
        for v in range(start, n):
            lo, hi = pred_ptr[v], pred_ptr[v + 1]
            best = 0.0
            best_pred = -1
            for k in range(lo, hi):
                p = pred_idx[k]
                ready = eft[p] + transfers[k]
                if best_pred < 0 or ready > best:
                    best = ready
                    best_pred = p
            est[v] = best
            eft[v] = best + durations[v]
            argmax_pred[v] = best_pred


def _forward_span(
    index: GraphIndex,
    durations: list[float],
    transfers: list[float] | None,
    est: list[float],
    eft: list[float],
    argmax_pred: list[int],
    node: int,
) -> int:
    """Forward span-scan shared by the incremental engines.

    Recomputes ``est``/``eft``/``argmax_pred`` in place over the span
    ``[node .. hi]``, extending the watermark ``hi`` to
    ``index.max_succ[u]`` whenever ``eft[u]`` changes *bitwise*; returns
    the final ``hi``.  Once the watermark reaches the last node it
    cannot extend further, so the loop drops the change-check/watermark
    bookkeeping (on the generator's backbone topology that is the common
    case almost immediately).  Every recomputed node runs the exact
    per-node accumulation of :func:`sweep_arrays`.
    """
    pred_ptr = index.pred_ptr
    pred_idx = index.pred_idx
    max_succ = index.max_succ
    last = index.num_nodes - 1
    hi = node
    v = node
    if transfers is None:
        while v <= hi < last:
            lo_, hi_ = pred_ptr[v], pred_ptr[v + 1]
            best = 0.0
            best_pred = -1
            for k in range(lo_, hi_):
                p = pred_idx[k]
                ready = eft[p]
                if best_pred < 0 or ready > best:
                    best = ready
                    best_pred = p
            est[v] = best
            argmax_pred[v] = best_pred
            new_eft = best + durations[v]
            if new_eft != eft[v]:
                eft[v] = new_eft
                ms = max_succ[v]
                if ms > hi:
                    hi = ms
            v += 1
    else:
        while v <= hi < last:
            lo_, hi_ = pred_ptr[v], pred_ptr[v + 1]
            best = 0.0
            best_pred = -1
            for k in range(lo_, hi_):
                p = pred_idx[k]
                ready = eft[p] + transfers[k]
                if best_pred < 0 or ready > best:
                    best = ready
                    best_pred = p
            est[v] = best
            argmax_pred[v] = best_pred
            new_eft = best + durations[v]
            if new_eft != eft[v]:
                eft[v] = new_eft
                ms = max_succ[v]
                if ms > hi:
                    hi = ms
            v += 1
    if v <= hi:  # the watermark reached the last node: plain tail pass
        _forward_full(index, durations, transfers, est, eft, argmax_pred, v)
    return hi


def _backward_full(
    index: GraphIndex,
    durations: list[float],
    transfers: list[float] | None,
    makespan: float,
    lst: list[float],
    lft: list[float],
) -> None:
    """Whole-graph backward pass (the :func:`sweep_arrays` backward body).

    Used by the incremental engines whenever the makespan moved — the
    shift reaches nearly every node, so change-check/watermark
    bookkeeping would cost more than it prunes.  Unconditional writes of
    bitwise-identical values where nothing changed.
    """
    n = index.num_nodes
    succ_ptr = index.succ_ptr
    succ_idx = index.succ_idx
    succ_slot = index.succ_slot
    if transfers is None:
        for v in range(n - 1, -1, -1):
            lo_, hi_ = succ_ptr[v], succ_ptr[v + 1]
            if lo_ == hi_:
                latest = makespan
            else:
                latest = lst[succ_idx[lo_]]
                for k in range(lo_ + 1, hi_):
                    cand = lst[succ_idx[k]]
                    if cand < latest:
                        latest = cand
            lft[v] = latest
            lst[v] = latest - durations[v]
    else:
        for v in range(n - 1, -1, -1):
            lo_, hi_ = succ_ptr[v], succ_ptr[v + 1]
            if lo_ == hi_:
                latest = makespan
            else:
                latest = lst[succ_idx[lo_]] - transfers[succ_slot[lo_]]
                for k in range(lo_ + 1, hi_):
                    cand = lst[succ_idx[k]] - transfers[succ_slot[k]]
                    if cand < latest:
                        latest = cand
            lft[v] = latest
            lst[v] = latest - durations[v]


def _backward_span(
    index: GraphIndex,
    durations: list[float],
    transfers: list[float] | None,
    makespan: float,
    lst: list[float],
    lft: list[float],
    node: int,
) -> int:
    """Backward span-scan for a makespan-preserving update; returns ``lo``.

    Rescans ``[lo .. node]`` in descending order, extending ``lo`` to
    ``index.min_pred[u]`` whenever ``lst[u]`` changes bitwise — the
    mirror image of :func:`_forward_span`.
    """
    succ_ptr = index.succ_ptr
    succ_idx = index.succ_idx
    succ_slot = index.succ_slot
    min_pred = index.min_pred
    lo = node
    v = node
    if transfers is None:
        while v >= lo:
            lo_, hi_ = succ_ptr[v], succ_ptr[v + 1]
            if lo_ == hi_:
                latest = makespan
            else:
                latest = lst[succ_idx[lo_]]
                for k in range(lo_ + 1, hi_):
                    cand = lst[succ_idx[k]]
                    if cand < latest:
                        latest = cand
            lft[v] = latest
            new_lst = latest - durations[v]
            if new_lst != lst[v]:
                lst[v] = new_lst
                mp = min_pred[v]
                if mp < lo:
                    lo = mp
            v -= 1
    else:
        while v >= lo:
            lo_, hi_ = succ_ptr[v], succ_ptr[v + 1]
            if lo_ == hi_:
                latest = makespan
            else:
                latest = lst[succ_idx[lo_]] - transfers[succ_slot[lo_]]
                for k in range(lo_ + 1, hi_):
                    cand = lst[succ_idx[k]] - transfers[succ_slot[k]]
                    if cand < latest:
                        latest = cand
            lft[v] = latest
            new_lst = latest - durations[v]
            if new_lst != lst[v]:
                lst[v] = new_lst
                mp = min_pred[v]
                if mp < lo:
                    lo = mp
            v -= 1
    return lo


class IncrementalSweep:
    """Incremental critical-path state with bit-identical float semantics.

    Owns preallocated EST/EFT/LST/LFT/argmax buffers for one workflow
    and repropagates only the affected region after a single-duration
    change.  Node ids are topological, so every node affected by a
    change at ``v`` lies in a contiguous id span:

    * **forward**: recompute ``est``/``eft`` for ``[v .. hi]`` in
      ascending order, where the watermark ``hi`` extends to
      ``index.max_succ[u]`` whenever ``eft[u]`` changes *bitwise*;
    * **backward**: LST depends only on successor LSTs, durations and
      the makespan.  If the makespan moved, the shift reaches nearly
      every node, so the whole graph is recomputed with the plain
      :func:`sweep_arrays` backward body (no span bookkeeping);
      otherwise only ``[lo .. v]`` is rescanned in descending order,
      with ``lo`` extending to ``index.min_pred[u]`` whenever
      ``lst[u]`` changes bitwise.

    Each recomputed node runs the *exact* per-node accumulation loop of
    :func:`sweep_arrays` over the same CSR slices, and propagation stops
    only where recomputed values are bitwise equal to the stored ones —
    by induction the buffers always equal a from-scratch sweep, bit for
    bit (asserted by ``tests/core/test_incremental.py``).

    When the forward span would cover at least
    :attr:`full_sweep_threshold` nodes (90% of the graph), the update
    falls back to one full :func:`sweep_arrays` call instead — near the
    entry the span-scan bookkeeping costs more than the plain sweep it
    replaces.

    Instances also maintain numpy mirrors of the EST/LST buffers
    (:attr:`est_array`/:attr:`lst_array`), synced by span-slice
    assignment, so vectorized consumers like
    :func:`critical_row_mask` never pay a full list->array conversion.

    Not thread-safe: one instance per solving thread.
    """

    def __init__(
        self,
        workflow: Workflow,
        durations: Mapping[str, float] | None = None,
        transfer_times: Mapping[tuple[str, str], float] | None = None,
    ) -> None:
        self.workflow = workflow
        self.index = graph_index(workflow)
        n = self.index.num_nodes
        #: Forward spans of at least this many nodes take the full-sweep
        #: fallback instead of the span-scan.
        self.full_sweep_threshold = max(1, int(_FULL_SWEEP_FRACTION * n))
        self._transfers = transfer_vector(self.index, transfer_times)
        # Stats: how often each path ran, and total span work done.
        self.updates = 0
        self.incremental_updates = 0
        self.full_sweeps = 0
        self.nodes_recomputed = 0
        self._durations: list[float] = []
        self._est: list[float] = []
        self._eft: list[float] = []
        self._lst: list[float] = []
        self._lft: list[float] = []
        self._argmax_pred: list[int] = []
        self._makespan = 0.0
        self._est_arr: np.ndarray = np.zeros(0)
        self._lst_arr: np.ndarray = np.zeros(0)
        if durations is None:
            self.reset_vector(list(self.index.base_durations))
        else:
            self.reset(durations)

    # -- state accessors (buffers are live views: do not mutate) --------

    @property
    def makespan(self) -> float:
        """Current makespan (``eft`` of the exit node)."""
        return self._makespan

    @property
    def est(self) -> list[float]:
        """Earliest start times in node-id order (live buffer)."""
        return self._est

    @property
    def eft(self) -> list[float]:
        """Earliest finish times in node-id order (live buffer)."""
        return self._eft

    @property
    def lst(self) -> list[float]:
        """Latest start times in node-id order (live buffer)."""
        return self._lst

    @property
    def lft(self) -> list[float]:
        """Latest finish times in node-id order (live buffer)."""
        return self._lft

    @property
    def argmax_pred(self) -> list[int]:
        """Predecessor realizing each ``est`` (live buffer)."""
        return self._argmax_pred

    @property
    def est_array(self) -> np.ndarray:
        """Numpy mirror of :attr:`est`, kept in sync by span slices."""
        return self._est_arr

    @property
    def lst_array(self) -> np.ndarray:
        """Numpy mirror of :attr:`lst`, kept in sync by span slices."""
        return self._lst_arr

    def duration_of(self, node: int) -> float:
        """Current duration of ``node``."""
        return self._durations[node]

    # -- (re)initialization ---------------------------------------------

    def reset_vector(self, durations: list[float]) -> float:
        """Adopt a fresh per-node duration vector and resweep fully.

        The vector is copied; returns the new makespan.
        """
        index = self.index
        if len(durations) != index.num_nodes:
            raise ScheduleError(
                f"expected {index.num_nodes} durations, got {len(durations)}"
            )
        self._durations = [float(d) for d in durations]
        self._full_resweep()
        return self._makespan

    def reset(self, durations: Mapping[str, float]) -> float:
        """Name-keyed :meth:`reset_vector` with reference-style validation."""
        return self.reset_vector(_duration_vector(self.index, durations))

    def _full_resweep(self) -> None:
        self.full_sweeps += 1
        swept = sweep_arrays(self.index, self._durations, self._transfers)
        self._est, self._eft, self._lst, self._lft, self._argmax_pred, self._makespan = swept
        self.nodes_recomputed += self.index.num_nodes
        self._est_arr = np.asarray(self._est, dtype=float)
        self._lst_arr = np.asarray(self._lst, dtype=float)

    # -- the incremental update -----------------------------------------

    def set_row_duration(self, row: int, value: float) -> float:
        """Set the duration of TE/CE row ``row``; returns the new makespan."""
        sched = self.index.sched_nodes
        if not 0 <= row < len(sched):
            raise ScheduleError(f"schedulable row {row} out of range")
        return self.set_duration(sched[row], value)

    def set_duration(self, node: int, value: float) -> float:
        """Set the duration of ``node`` and repropagate; returns makespan.

        After this call every buffer is bitwise equal to what
        :func:`sweep_arrays` would produce from scratch on the updated
        duration vector.
        """
        index = self.index
        n = index.num_nodes
        if not 0 <= node < n:
            raise ScheduleError(f"node id {node} out of range")
        value = float(value)
        if value < 0:
            raise ScheduleError(
                f"module {index.names[node]!r} has negative duration {value!r}"
            )
        self.updates += 1
        durations = self._durations
        if value == durations[node]:
            return self._makespan
        durations[node] = value
        if n - node >= self.full_sweep_threshold:
            self._full_resweep()
            return self._makespan
        self.incremental_updates += 1

        est, eft = self._est, self._eft
        transfers = self._transfers
        hi = _forward_span(
            index, durations, transfers, est, eft, self._argmax_pred, node
        )

        # Bitwise (not tolerance-based) comparison on purpose: the
        # incremental contract is exact equality with a full sweep, and
        # propagation may only stop where values are unchanged bit for bit.
        new_makespan = eft[index.exit]
        makespan_changed = new_makespan != self._makespan  # lint: ignore[RA901]
        self._makespan = new_makespan

        # Backward pass: LST depends only on successor LSTs, durations
        # and the makespan.  When the makespan moved — which a
        # Critical-Greedy upgrade does on essentially every step — the
        # shift reaches nearly every node, so run the whole-graph body;
        # only a makespan-preserving update keeps the span-scan.
        lst, lft = self._lst, self._lft
        if makespan_changed:
            start = n - 1
            lo = 0
            _backward_full(index, durations, transfers, new_makespan, lst, lft)
        else:
            start = node
            lo = _backward_span(
                index, durations, transfers, new_makespan, lst, lft, node
            )

        # Sync the numpy mirrors over exactly the recomputed spans.
        self._est_arr[node : hi + 1] = est[node : hi + 1]
        self._lst_arr[lo : start + 1] = lst[lo : start + 1]
        self.nodes_recomputed += (hi - node + 1) + (start - lo + 1)
        return new_makespan

    def critical_rows(self) -> np.ndarray:
        """Boolean TE/CE-row mask of critical schedulable modules."""
        return critical_row_mask(self.index, self._est_arr, self._lst_arr)

    def result(self) -> FastPathResult:
        """Snapshot the current state as an immutable :class:`FastPathResult`."""
        return _result_from_lists(
            self.workflow,
            self.index,
            list(self._durations),
            (
                list(self._est),
                list(self._eft),
                list(self._lst),
                list(self._lft),
                list(self._argmax_pred),
                self._makespan,
            ),
        )


class _LazyCriticalPathAnalysis(CriticalPathAnalysis):
    """A :class:`CriticalPathAnalysis` materialized from kernel arrays.

    The dict fields (``est``/``eft``/``lst``/``lft``/``durations``), the
    ``critical_path`` tuple and ``makespan`` are only built on first
    attribute access — schedulers that read nothing but the makespan
    (which :class:`~repro.core.schedule.ScheduleEvaluation` carries
    separately) never pay for the name-keyed views.  Once materialized,
    the instance is indistinguishable from a reference analysis: same
    class hierarchy, same dict contents, same deterministic longest path.
    """

    def __init__(self, result: "FastPathResult") -> None:
        # Deliberately does not call the dataclass __init__: fields are
        # installed by _materialize() on first access.
        object.__setattr__(self, "_result", result)

    def __getattr__(self, name: str) -> Any:
        if name in _ANALYSIS_FIELDS:
            object.__getattribute__(self, "_materialize")()
            return object.__getattribute__(self, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __eq__(self, other: object) -> bool:
        # The dataclass-generated __eq__ demands an exact class match; the
        # facade must instead compare equal to any CriticalPathAnalysis
        # with the same field values (the equivalence tests rely on it).
        if isinstance(other, CriticalPathAnalysis):
            self._materialize()
            return all(
                getattr(self, field) == getattr(other, field)
                for field in _ANALYSIS_FIELDS
            )
        return NotImplemented

    __hash__ = CriticalPathAnalysis.__hash__

    def _materialize(self) -> None:
        if "makespan" in self.__dict__:
            return
        result: FastPathResult = object.__getattribute__(self, "_result")
        index = result.index
        names = index.names
        durations = result.durations.tolist()
        object.__setattr__(self, "workflow", result.workflow)
        object.__setattr__(self, "durations", dict(zip(names, durations)))
        object.__setattr__(self, "est", dict(zip(names, result.est.tolist())))
        object.__setattr__(self, "eft", dict(zip(names, result.eft.tolist())))
        object.__setattr__(self, "lst", dict(zip(names, result.lst.tolist())))
        object.__setattr__(self, "lft", dict(zip(names, result.lft.tolist())))
        object.__setattr__(self, "makespan", result.makespan)
        object.__setattr__(self, "critical_path", result.critical_path_names())


_ANALYSIS_FIELDS = frozenset(
    {"workflow", "durations", "est", "eft", "lst", "lft", "makespan", "critical_path"}
)


@dataclass(frozen=True)
class FastPathResult:
    """Array-based result of one critical-path sweep.

    All vectors are numpy float arrays in node-id (topological) order;
    use ``index.node_index[name]`` to address a module by name, or
    :meth:`as_analysis` for the dict-keyed compatibility view.
    """

    workflow: Workflow
    index: GraphIndex
    durations: np.ndarray
    est: np.ndarray
    eft: np.ndarray
    lst: np.ndarray
    lft: np.ndarray
    makespan: float
    argmax_pred: tuple[int, ...]

    def buffer_times(self) -> np.ndarray:
        """Per-node slack ``lst - est`` as one vector."""
        return self.lst - self.est

    def critical_mask(self) -> np.ndarray:
        """Boolean vector: which nodes have (numerically) zero buffer."""
        result: np.ndarray = self.buffer_times() <= _SLACK_TOL
        return result

    def critical_path_names(self) -> tuple[str, ...]:
        """One deterministic longest entry->exit path (reference-identical)."""
        names = self.index.names
        path = [names[self.index.exit]]
        cursor = self.argmax_pred[self.index.exit]
        while cursor >= 0:
            path.append(names[cursor])
            cursor = self.argmax_pred[cursor]
        path.reverse()
        return tuple(path)

    def critical_schedulable_rows(self) -> list[int]:
        """TE/CE rows of critical schedulable modules, in topo order.

        These are exactly the Critical-Greedy rescheduling candidates
        (:meth:`CriticalPathAnalysis.critical_schedulable` as row
        indices).
        """
        mask = critical_row_mask(self.index, self.est, self.lst)
        rows: list[int] = np.flatnonzero(mask).tolist()
        return rows

    def as_analysis(self) -> CriticalPathAnalysis:
        """The lazily materialized :class:`CriticalPathAnalysis` facade."""
        return _LazyCriticalPathAnalysis(self)


def _result_from_lists(
    workflow: Workflow,
    index: GraphIndex,
    durations: list[float],
    swept: tuple[list[float], list[float], list[float], list[float], list[int], float],
) -> FastPathResult:
    est, eft, lst, lft, argmax_pred, makespan = swept
    return FastPathResult(
        workflow=workflow,
        index=index,
        durations=np.asarray(durations, dtype=float),
        est=np.asarray(est, dtype=float),
        eft=np.asarray(eft, dtype=float),
        lst=np.asarray(lst, dtype=float),
        lft=np.asarray(lft, dtype=float),
        makespan=makespan,
        argmax_pred=tuple(argmax_pred),
    )


def fast_critical_path(
    workflow: Workflow,
    durations: Mapping[str, float],
    transfer_times: Mapping[tuple[str, str], float] | None = None,
) -> FastPathResult:
    """Array-backed equivalent of :func:`analyze_critical_path`.

    Same inputs, same validation, bit-identical est/eft/lst/lft/makespan
    and critical path — returned as :class:`FastPathResult` vectors
    instead of name-keyed dicts (use :meth:`FastPathResult.as_analysis`
    for the dict view).

    Raises
    ------
    ScheduleError
        If a module is missing from ``durations`` or a duration is
        negative (identical to the reference).
    """
    index = graph_index(workflow)
    vector = _duration_vector(index, durations)
    transfers = transfer_vector(index, transfer_times)
    swept = sweep_arrays(index, vector, transfers)
    return _result_from_lists(workflow, index, vector, swept)


def evaluate_assignment_vectors(
    workflow: Workflow,
    te: np.ndarray,
    columns: list[int],
    transfer_times: Mapping[tuple[str, str], float] | None = None,
) -> FastPathResult:
    """Sweep a schedule given directly as a per-row type-column vector.

    ``columns[i]`` is the VM-type column chosen for TE/CE row ``i``
    (schedulable modules in topological order).  This is the zero-dict
    entry point used by :meth:`Schedule.evaluate`.
    """
    index = graph_index(workflow)
    durations = list(index.base_durations)
    for row, node in enumerate(index.sched_nodes):
        durations[node] = float(te[row, columns[row]])
    transfers = transfer_vector(index, transfer_times)
    swept = sweep_arrays(index, durations, transfers)
    return _result_from_lists(workflow, index, durations, swept)
