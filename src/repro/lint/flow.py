"""Pass 2 — whole-program flow rules: RT7xx concurrency, RN8xx determinism.

These rules run over the :class:`~repro.lint.callgraph.ProjectIndex`
(symbol table + call graph built by pass 1) instead of one file at a
time, which is what lets them reason about *paths*:

* ``RT701`` — **lock-discipline inference.**  For every class in
  ``repro.service`` owning a ``threading.Lock``/``RLock``/``Condition``
  attribute, infer which instance attributes are *guarded* (at least one
  access happens under ``with self._lock:`` — or inside a
  ``*_locked``-suffixed method, the caller-holds-the-lock convention —
  and the attribute is written outside ``__init__``) and report every
  access to a guarded attribute made without the lock.
* ``RT702`` — **lock-order cycles.**  Build the lock-acquisition
  ordering graph (lock *L* → lock *M* when some path acquires *M* while
  holding *L*, following calls through the call graph) and report
  cycles; re-acquiring a non-reentrant ``Lock`` on a path that already
  holds it is reported as a self-deadlock.
* ``RT703`` — **blocking calls on HTTP handler paths.**  Flag
  ``time.sleep``, ``urlopen``/``create_connection``, file I/O
  (``open``, ``read_text``/``write_text``/...), and un-timeouted
  ``Queue.get()``/``Future.result()`` reachable from ``do_GET``/
  ``do_POST``-style entry points of ``BaseHTTPRequestHandler``
  subclasses.  Warning severity today (the thread-per-request fabric
  tolerates them, each is baselined with a justification); this is the
  rule that will gate the planned asyncio core against sync-in-async
  regressions.
* ``RN801``/``RN802`` — **bit-identity float order.**  Inside the
  modules that declare the bit-identity contract (``core/fastpath.py``,
  ``core/critical_path.py``, ``algorithms/``), flag float reductions
  whose order is an *implicit* property: ``sum()`` over dict views or
  sets (insertion/hash order), ``np.sum`` over strided slices (pairwise
  blocking differs from the contiguous path), axis-wise ``sum``/
  ``mean``/``prod``-family folds over 2-D grids (the fold order along
  an axis is a layout property; only exact ``max``/``min``/``any``/
  ``all``/``argmax`` reductions may cross it), and ``+=`` accumulation inside ``for ... in
  d.items()`` loops.  The results may be deterministic *today*, but
  their order is not part of any contract — the exact refactor hazard
  the fastpath's frontier-equality tests exist to catch.
* ``RN803`` — **unseeded randomness** in ``experiments/`` and ``sim/``:
  ``np.random.default_rng()`` with no seed, legacy global
  ``np.random.<fn>`` sampling, module-level ``random.<fn>`` calls, and
  seedless ``random.Random()``.

Known soft spots, by construction: lock state inside nested functions /
lambdas is unknown (their bodies are skipped entirely — no findings, no
evidence), ``lock.acquire()``/``release()`` pairs are not tracked (the
codebase uses ``with``), and call resolution is first-order (no locals
dataflow, no callbacks through ``target=``/``submit``).
"""

from __future__ import annotations

import ast
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.astrules import SourceModule
from repro.lint.callgraph import ClassInfo, FunctionInfo, ProjectIndex
from repro.lint.diagnostics import Severity
from repro.lint.registry import flow_rule

__all__ = ["Finding"]

#: Flow findings: ``(relpath, lineno, message, suggestion)``.
Finding = tuple[str, int, str, str]

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Method calls on an attribute that mutate it in place (count as writes).
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "update",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "remove",
        "discard",
        "extend",
        "insert",
        "setdefault",
        "move_to_end",
        "sort",
        "reverse",
    }
)

_HANDLER_ENTRY_NAMES = (
    "do_GET",
    "do_POST",
    "do_PUT",
    "do_DELETE",
    "do_HEAD",
    "do_PATCH",
)

_UNORDERED_ITERATORS = frozenset({"values", "keys", "items"})

#: Legacy global-state samplers on ``np.random``.
_NP_SAMPLERS = frozenset(
    {
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "normal",
        "uniform",
        "standard_normal",
        "exponential",
        "poisson",
        "beta",
        "gamma",
    }
)

#: Module-level samplers on the stdlib ``random`` module.
_PY_SAMPLERS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "triangular",
    }
)


def _tail(expr: ast.expr) -> str | None:
    """Terminal identifier of a Name/Attribute expression, else ``None``."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _self_attr(expr: ast.expr) -> str | None:
    """``X`` when the expression is exactly ``self.X``, else ``None``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _sorted_classes(index: ProjectIndex) -> list[ClassInfo]:
    return [index.classes[qual] for qual in sorted(index.classes)]


# --------------------------------------------------------------------- #
# Lock modelling (shared by RT701 / RT702)
# --------------------------------------------------------------------- #


def _lock_kind(expr: ast.expr) -> str | None:
    """``Lock``/``RLock``/``Condition`` when ``expr`` builds one.

    Handles direct construction (``threading.Lock()``) and the dataclass
    idiom ``field(default_factory=threading.Lock)``.
    """
    if not isinstance(expr, ast.Call):
        return None
    tail = _tail(expr.func)
    if tail in _LOCK_FACTORIES:
        return tail
    if tail == "field":
        for kw in expr.keywords:
            if kw.arg == "default_factory":
                factory = _tail(kw.value)
                if factory in _LOCK_FACTORIES:
                    return factory
    return None


def _lock_attrs(cls: ClassInfo) -> dict[str, str]:
    """``self.<attr>`` lock attributes of a class → lock kind."""
    out: dict[str, str] = {}
    for item in cls.node.body:
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and item.value is not None
        ):
            kind = _lock_kind(item.value)
            if kind is not None:
                out[item.target.id] = kind
    for method in cls.methods.values():
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign):
                continue
            kind = _lock_kind(node.value)
            if kind is None:
                continue
            for tgt in node.targets:
                attr = _self_attr(tgt)
                if attr is not None:
                    out[attr] = kind
    return out


@dataclass
class _Access:
    """One ``self.<attr>`` access inside a method."""

    attr: str
    lineno: int
    write: bool
    held: tuple[str, ...]  #: lock attrs held at the access site


@dataclass
class _MethodFacts:
    """Everything RT701/RT702 need to know about one method body."""

    accesses: list[_Access] = field(default_factory=list)
    #: ``(lock attr, lineno, locks already held when acquiring)``.
    acquires: list[tuple[str, int, tuple[str, ...]]] = field(default_factory=list)
    #: ``(locks held, call node)`` for every call made under a lock.
    calls_holding: list[tuple[tuple[str, ...], ast.Call]] = field(
        default_factory=list
    )


def _scan_method(
    method: FunctionInfo, lock_attrs: Mapping[str, str]
) -> _MethodFacts:
    """Single AST pass over a method tracking the held-lock set.

    Nested function/lambda bodies are skipped outright: they execute at
    an unknown time, so the lexical lock state says nothing about them.
    """
    facts = _MethodFacts()
    consumed: set[int] = set()  # inner Attribute nodes already classified

    def visit(node: ast.AST, held: tuple[str, ...]) -> None:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and node is not method.node
        ):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            newly: list[str] = []
            for item in node.items:
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in lock_attrs:
                    facts.acquires.append((attr, item.context_expr.lineno, held))
                    if attr not in held:
                        newly.append(attr)
                else:
                    visit(item.context_expr, held)
                if item.optional_vars is not None:
                    visit(item.optional_vars, held)
            inner = held + tuple(newly)
            for child in node.body:
                visit(child, inner)
            return
        if isinstance(node, ast.Call):
            if held:
                facts.calls_holding.append((held, node))
            if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                recv = _self_attr(node.func.value)
                if recv is not None:
                    facts.accesses.append(
                        _Access(recv, node.func.value.lineno, True, held)
                    )
                    consumed.add(id(node.func.value))
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            # `self._counts[k] += 1` / `del self._entries[key]`: the inner
            # `self._counts` Attribute is a Load, but the effect is a write.
            base: ast.expr = node.value
            while isinstance(base, ast.Subscript):
                base = base.value
            attr = _self_attr(base)
            if attr is not None:
                facts.accesses.append(_Access(attr, base.lineno, True, held))
                consumed.add(id(base))
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None and id(node) not in consumed:
                facts.accesses.append(
                    _Access(
                        attr,
                        node.lineno,
                        isinstance(node.ctx, (ast.Store, ast.Del)),
                        held,
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    visit(method.node, ())
    return facts


def _caller_holds_lock(method_name: str) -> bool:
    """The ``*_locked`` naming convention: caller is assumed to hold it."""
    return method_name.endswith("_locked")


# --------------------------------------------------------------------- #
# RT701 — lock-discipline inference
# --------------------------------------------------------------------- #


@flow_rule(
    "RT701",
    severity=Severity.ERROR,
    summary="lock-guarded attribute accessed without holding the lock",
    rationale="The service fabric is thread-per-request with hand-rolled "
    "locks.  An attribute that is accessed under `with self._lock:` "
    "somewhere and mutated after __init__ is shared mutable state under a "
    "lock discipline; any access outside the lock (and outside *_locked "
    "caller-holds-it methods) is a data race waiting for a refactor to "
    "expose it.",
)
def _rt701_unguarded_access(index: ProjectIndex) -> Iterator[Finding]:
    for cls in _sorted_classes(index):
        if not cls.module.in_service_package():
            continue
        locks = _lock_attrs(cls)
        if not locks:
            continue
        per_attr: dict[str, list[tuple[str, _Access]]] = {}
        for mname in sorted(cls.methods):
            facts = _scan_method(cls.methods[mname], locks)
            for acc in facts.accesses:
                if (
                    acc.attr in locks
                    or acc.attr in cls.methods
                    or acc.attr.startswith("__")
                ):
                    continue
                per_attr.setdefault(acc.attr, []).append((mname, acc))
        for attr in sorted(per_attr):
            records = per_attr[attr]
            has_locked = any(
                acc.held or _caller_holds_lock(mname) for mname, acc in records
            )
            written_after_init = any(
                acc.write and mname != "__init__" for mname, acc in records
            )
            if not (has_locked and written_after_init):
                continue
            evidence = Counter(
                acc.held[-1] for _, acc in records if acc.held
            )
            guard = (
                evidence.most_common(1)[0][0] if evidence else sorted(locks)[0]
            )
            for mname, acc in records:
                if mname == "__init__" or _caller_holds_lock(mname) or acc.held:
                    continue
                verb = "written" if acc.write else "read"
                yield (
                    cls.module.relpath,
                    acc.lineno,
                    f"{cls.name}.{attr} is guarded by self.{guard} elsewhere "
                    f"but {verb} without it in {mname}()",
                    f"wrap the access in `with self.{guard}:`, or add a "
                    "`_locked` suffix to the method if its callers hold the "
                    "lock",
                )


# --------------------------------------------------------------------- #
# RT702 — lock-acquisition ordering
# --------------------------------------------------------------------- #


def _lock_id(cls: ClassInfo, attr: str) -> str:
    return f"{cls.qualname}#{attr}"


def _lock_display(lock_id: str) -> str:
    qual, attr = lock_id.rsplit("#", 1)
    return f"{qual.rsplit('::', 1)[-1]}.{attr}"


@flow_rule(
    "RT702",
    severity=Severity.ERROR,
    summary="lock-order cycle or re-acquisition (potential deadlock)",
    rationale="When one code path acquires lock B while holding lock A and "
    "another acquires A while holding B, two threads can each hold one "
    "half and wait forever; re-acquiring a non-reentrant Lock on a path "
    "that already holds it deadlocks a single thread.  The acquisition "
    "graph is built across the call graph, so indirect orderings "
    "(method under lock calls helper that locks another object) count.",
)
def _rt702_lock_order(index: ProjectIndex) -> Iterator[Finding]:
    class_locks: dict[str, dict[str, str]] = {}
    lock_kinds: dict[str, str] = {}
    for cls in _sorted_classes(index):
        locks = _lock_attrs(cls)
        if locks:
            class_locks[cls.qualname] = locks
            for attr, kind in locks.items():
                lock_kinds[_lock_id(cls, attr)] = kind

    # One scan per method of a lock-owning class.
    scans: dict[str, tuple[ClassInfo, FunctionInfo, _MethodFacts]] = {}
    for cls in _sorted_classes(index):
        locks = class_locks.get(cls.qualname)
        if locks is None:
            continue
        for mname in sorted(cls.methods):
            method = cls.methods[mname]
            scans[method.qualname] = (cls, method, _scan_method(method, locks))

    #: L → M → (relpath, lineno, how the edge arises).
    edges: dict[str, dict[str, tuple[str, int, str]]] = {}
    reported_self: set[tuple[str, int, str]] = set()

    def add_edge(
        held_id: str, acquired_id: str, relpath: str, lineno: int, note: str
    ) -> None:
        edges.setdefault(held_id, {}).setdefault(
            acquired_id, (relpath, lineno, note)
        )

    self_findings: list[Finding] = []

    for qual in sorted(scans):
        cls, method, facts = scans[qual]
        relpath = cls.module.relpath
        # Direct nested acquisition in the same method body.
        for attr, lineno, held in facts.acquires:
            acquired = _lock_id(cls, attr)
            for held_attr in held:
                holding = _lock_id(cls, held_attr)
                if holding == acquired:
                    if lock_kinds.get(acquired) == "Lock":
                        key = (relpath, lineno, acquired)
                        if key not in reported_self:
                            reported_self.add(key)
                            self_findings.append(
                                (
                                    relpath,
                                    lineno,
                                    f"{method.display}() re-acquires "
                                    f"non-reentrant {_lock_display(acquired)} "
                                    "while already holding it "
                                    "(self-deadlock)",
                                    "use the *_locked helper convention or "
                                    "an RLock if re-entry is intended",
                                )
                            )
                else:
                    add_edge(
                        holding,
                        acquired,
                        relpath,
                        lineno,
                        f"{method.display} acquires "
                        f"{_lock_display(acquired)} under "
                        f"{_lock_display(holding)}",
                    )
        # Calls made while holding a lock: follow the call graph to any
        # function that acquires locks of its own.
        for held, call in facts.calls_holding:
            callee = index.resolve_call(method, call)
            if callee is None:
                continue
            reach = index.reachable([callee.qualname], max_depth=8)
            for target_qual in sorted(reach):
                entry = scans.get(target_qual)
                if entry is None:
                    continue
                tcls, tmethod, tfacts = entry
                for attr, _alineno, _aheld in tfacts.acquires:
                    acquired = _lock_id(tcls, attr)
                    for held_attr in held:
                        holding = _lock_id(cls, held_attr)
                        if holding == acquired:
                            if lock_kinds.get(acquired) == "Lock":
                                key = (relpath, call.lineno, acquired)
                                if key not in reported_self:
                                    reported_self.add(key)
                                    self_findings.append(
                                        (
                                            relpath,
                                            call.lineno,
                                            f"{method.display}() calls "
                                            f"{tmethod.display}() while "
                                            f"holding "
                                            f"{_lock_display(acquired)}, "
                                            "which re-acquires the same "
                                            "non-reentrant lock "
                                            "(self-deadlock)",
                                            "move the call outside the "
                                            "locked region or use a "
                                            "*_locked variant of the "
                                            "callee",
                                        )
                                    )
                        else:
                            add_edge(
                                holding,
                                acquired,
                                relpath,
                                call.lineno,
                                f"{method.display} -> {tmethod.display}",
                            )

    yield from self_findings

    # Cycle detection over the ordering graph (white/grey/black DFS).
    cycles: list[tuple[str, ...]] = []
    path: list[str] = []
    on_path: set[str] = set()
    visited: set[str] = set()

    def dfs(node: str) -> None:
        visited.add(node)
        on_path.add(node)
        path.append(node)
        for nxt in sorted(edges.get(node, {})):
            if nxt in on_path:
                cycles.append(tuple(path[path.index(nxt) :]))
            elif nxt not in visited:
                dfs(nxt)
        path.pop()
        on_path.discard(node)

    for node in sorted(edges):
        if node not in visited:
            dfs(node)

    seen: set[tuple[str, ...]] = set()
    for cycle in cycles:
        pivot = min(range(len(cycle)), key=lambda i: cycle[i])
        canon = cycle[pivot:] + cycle[:pivot]
        if canon in seen:
            continue
        seen.add(canon)
        relpath, lineno, note = edges[canon[0]][canon[1 % len(canon)]]
        chain = " -> ".join(_lock_display(l) for l in (*canon, canon[0]))
        yield (
            relpath,
            lineno,
            f"lock-order cycle (potential deadlock): {chain}; "
            f"this edge via {note}",
            "pick one global acquisition order, or stop holding a lock "
            "across the call that acquires the other",
        )


# --------------------------------------------------------------------- #
# RT703 — blocking calls on HTTP handler paths
# --------------------------------------------------------------------- #


def _handler_classes(index: ProjectIndex) -> list[ClassInfo]:
    """Classes (transitively) deriving from BaseHTTPRequestHandler."""
    handlers: dict[str, ClassInfo] = {}
    changed = True
    while changed:
        changed = False
        for cls in _sorted_classes(index):
            if cls.qualname in handlers:
                continue
            for base in cls.bases:
                if base == "BaseHTTPRequestHandler":
                    handlers[cls.qualname] = cls
                    changed = True
                    break
                resolved = index.resolve_symbol(cls.modkey, base)
                if (
                    isinstance(resolved, ClassInfo)
                    and resolved.qualname in handlers
                ):
                    handlers[cls.qualname] = cls
                    changed = True
                    break
    return [handlers[qual] for qual in sorted(handlers)]


def _blocking_call(
    call: ast.Call, fn: FunctionInfo, index: ProjectIndex
) -> tuple[str, str] | None:
    """``(description, suggestion)`` when the call site is blocking."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return (
                "file I/O via builtin open()",
                "move file access off the request path (or baseline with a "
                "justification if the latency is accepted)",
            )
        imported = index.symbol_imports.get(fn.modkey, {}).get(func.id)
        if func.id == "sleep" and imported is not None and imported[0] == "time":
            return (
                "time.sleep()",
                "replace with event/condition-based waiting off the handler "
                "thread",
            )
        if func.id == "urlopen" and imported is not None:
            return (
                "urlopen()",
                "do network I/O off the request path, with a timeout",
            )
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _tail(func.value)
    if receiver in ("rfile", "wfile"):
        return None  # reading/writing the request socket IS the handler's job
    attr = func.attr
    if (
        attr == "sleep"
        and isinstance(func.value, ast.Name)
        and func.value.id == "time"
    ):
        return (
            "time.sleep()",
            "replace with event/condition-based waiting off the handler thread",
        )
    if attr == "urlopen":
        return (
            "urllib urlopen()",
            "do network I/O off the request path, with a timeout",
        )
    if attr == "create_connection":
        return (
            "socket.create_connection()",
            "do network I/O off the request path, with a timeout",
        )
    if attr in ("read_text", "write_text", "read_bytes", "write_bytes"):
        return (
            f"file I/O (.{attr}())",
            "move file access off the request path (or baseline with a "
            "justification if the latency is accepted)",
        )
    if attr == "get" and not call.args and not call.keywords:
        return (
            "un-timeouted queue .get()",
            "pass timeout=... so a wedged producer cannot hang the handler",
        )
    if attr == "result" and not call.args and not any(
        kw.arg == "timeout" for kw in call.keywords
    ):
        return (
            "un-timeouted Future.result()",
            "pass timeout=... and convert expiry into a 5xx/504-style error",
        )
    return None


def _own_calls(fn_node: ast.AST) -> Iterator[ast.Call]:
    """Call nodes lexically in this function, excluding nested defs.

    Nested functions and lambdas run at an unknown later time (callbacks,
    worker targets), so their calls are not on the handler's own path.
    """
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _async_entries(index: ProjectIndex) -> list[str]:
    """Every ``async def`` in the project: each one runs on an event loop.

    A blocking primitive anywhere on a coroutine's synchronous call path
    stalls *every* request on that loop, not just its own — strictly
    worse than tying up one handler thread.  The gate escalates these to
    errors under ``service/aio/`` (see ``_effective_severity``).
    """
    return sorted(
        qual
        for qual, fn in index.functions.items()
        if isinstance(fn.node, ast.AsyncFunctionDef)
    )


def _rt703_scan(
    index: ProjectIndex,
    entries: list[str],
    path_kind: str,
    seen_sites: set[tuple[str, int, str]],
) -> Iterator[Finding]:
    if not entries:
        return
    reach = index.reachable(sorted(entries))
    for qual in sorted(reach):
        fn = index.functions.get(qual)
        if fn is None:
            continue
        chain = " -> ".join(
            index.functions[q].display for q in index.call_chain(qual, reach)
        )
        for node in _own_calls(fn.node):
            hit = _blocking_call(node, fn, index)
            if hit is None:
                continue
            description, suggestion = hit
            key = (fn.module.relpath, node.lineno, description)
            if key in seen_sites:
                continue
            seen_sites.add(key)
            yield (
                fn.module.relpath,
                node.lineno,
                f"blocking {description} on {path_kind} ({chain})",
                suggestion,
            )


@flow_rule(
    "RT703",
    severity=Severity.WARNING,
    summary="blocking call reachable from an HTTP or asyncio handler path",
    rationale="Every blocking call on a do_GET/do_POST path ties up a "
    "request thread for an unbounded time, and the same call on an "
    "``async def`` path stalls the event loop for every request at once "
    "(which is why asyncio-path findings gate as errors under "
    "service/aio/).  Each accepted occurrence must carry a baseline "
    "justification; new ones need an explicit decision.",
)
def _rt703_blocking_on_handler_path(index: ProjectIndex) -> Iterator[Finding]:
    entries: list[str] = []
    for cls in _handler_classes(index):
        for name in _HANDLER_ENTRY_NAMES:
            method = cls.methods.get(name)
            if method is not None:
                entries.append(method.qualname)
    # The threaded traversal runs first so a site on both paths keeps its
    # historical "HTTP handler path" message (baseline stability).
    seen_sites: set[tuple[str, int, str]] = set()
    yield from _rt703_scan(index, entries, "an HTTP handler path", seen_sites)
    yield from _rt703_scan(
        index, _async_entries(index), "an asyncio handler path", seen_sites
    )


# --------------------------------------------------------------------- #
# RN8xx — numeric determinism
# --------------------------------------------------------------------- #


def _bit_identity_module(module: SourceModule) -> bool:
    """Modules bound by the bit-identical-float contract."""
    parts = Path(module.relpath).parts
    if "algorithms" in parts[:-1]:
        return True
    return parts[-1] in ("fastpath.py", "critical_path.py") and "core" in parts[:-1]


def _contains_order_fix(expr: ast.expr) -> bool:
    """Whether a ``sorted(...)`` wrapper pins the iteration order."""
    return any(
        isinstance(node, ast.Call) and _tail(node.func) == "sorted"
        for node in ast.walk(expr)
    )


def _unordered_source(expr: ast.expr) -> str | None:
    """Description of an insertion/hash-ordered iterable in the subtree."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _UNORDERED_ITERATORS
        ):
            return f"dict .{node.func.attr}()"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set"
    return None


def _stepped_slice(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Subscript)
        and isinstance(expr.slice, ast.Slice)
        and expr.slice.step is not None
    )


#: Axis-taking numpy folds whose float result depends on accumulation
#: order.  Exact, order-independent reductions (``max``/``min``/``any``/
#: ``all``/``argmax``/``argmin``) are deliberately absent: they are the
#: folds a bit-identity module may run across a grid axis.
_ORDER_SENSITIVE_REDUCERS = frozenset(
    {
        "sum",
        "nansum",
        "prod",
        "nanprod",
        "mean",
        "nanmean",
        "average",
        "std",
        "var",
        "cumsum",
        "cumprod",
    }
)


def _axis_argument(node: ast.Call) -> bool:
    """Whether a reduction call selects an ``axis`` (keyword or positional).

    Recognizes ``grid.sum(axis=1)``, ``np.mean(grid, axis=(0, 1))`` and
    the positional forms ``grid.sum(1)`` / ``np.sum(grid, 0)``.
    """
    if any(kw.arg == "axis" for kw in node.keywords):
        return True
    func = node.func
    positional = node.args
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        positional = node.args[1:]
    if not positional:
        return False
    head = positional[0]
    return isinstance(head, ast.Tuple) or (
        isinstance(head, ast.Constant)
        and isinstance(head.value, int)
        and not isinstance(head.value, bool)
    )


@flow_rule(
    "RN801",
    severity=Severity.ERROR,
    summary="order-implicit float reduction in a bit-identity module",
    rationale="core/fastpath.py, core/critical_path.py and algorithms/ "
    "promise bit-identical floats against the reference path.  sum() over "
    "dict views or sets reduces in insertion/hash order — deterministic "
    "today, but the order is an implicit property any refactor can "
    "change; np.sum over a strided slice uses different pairwise blocking "
    "than the contiguous path; an axis-wise sum/mean/prod over a 2-D "
    "grid folds each row in an order set by the array's layout.  "
    "Reduction order must be explicit there — only exact folds "
    "(max/min/any/all/argmax) may cross a grid axis.",
)
def _rn801_order_sensitive_reduction(index: ProjectIndex) -> Iterator[Finding]:
    for modkey in sorted(index.modules):
        module = index.modules[modkey]
        if not _bit_identity_module(module):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "sum" and node.args:
                arg = node.args[0]
                if _contains_order_fix(arg):
                    continue
                source = _unordered_source(arg)
                if source is not None:
                    yield (
                        module.relpath,
                        node.lineno,
                        f"sum() reduces over {source}: the float result "
                        "depends on insertion/hash order",
                        "iterate an explicitly ordered sequence (a list kept "
                        "in contract order, or sorted(...)) so the "
                        "reduction order is part of the API",
                    )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _ORDER_SENSITIVE_REDUCERS
            ):
                if _axis_argument(node):
                    yield (
                        module.relpath,
                        node.lineno,
                        f"axis-wise {func.attr}(): an order-sensitive float "
                        "fold across a batched reduction axis — the fold "
                        "order is an implicit property of the array layout",
                        "reduce with an exact order-independent fold "
                        "(max/min/any/all/argmax) or fold the batched axis "
                        "in explicit contract order",
                    )
                    continue
                if func.attr != "sum":
                    continue
                target: ast.expr | None = None
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")
                    and node.args
                ):
                    target = node.args[0]
                elif _stepped_slice(func.value):
                    target = func.value
                if target is not None and _stepped_slice(target):
                    yield (
                        module.relpath,
                        node.lineno,
                        "np sum over a strided (non-contiguous) slice: "
                        "pairwise-summation blocking differs from the "
                        "contiguous path",
                        "sum a contiguous array (np.ascontiguousarray or "
                        "restructure the slice) so the reduction matches "
                        "the bit-identity reference",
                    )


@flow_rule(
    "RN802",
    severity=Severity.ERROR,
    summary="dict-iteration-order-dependent accumulation in a bit-identity module",
    rationale="A `total += ...` inside `for ... in d.items()` folds floats "
    "in dict insertion order — an implicit property of whoever built the "
    "dict.  In bit-identity modules the fold order must be pinned by the "
    "code, not inherited from construction order.",
)
def _rn802_dict_order_accumulation(index: ProjectIndex) -> Iterator[Finding]:
    for modkey in sorted(index.modules):
        module = index.modules[modkey]
        if not _bit_identity_module(module):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            it = node.iter
            if not (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in _UNORDERED_ITERATORS
            ):
                continue
            for stmt in node.body:
                hit = next(
                    (
                        sub
                        for sub in ast.walk(stmt)
                        if isinstance(sub, ast.AugAssign)
                        and isinstance(sub.op, (ast.Add, ast.Sub, ast.Mult))
                    ),
                    None,
                )
                if hit is not None:
                    yield (
                        module.relpath,
                        hit.lineno,
                        f"accumulation inside `for ... in "
                        f"....{it.func.attr}()` depends on dict iteration "
                        "order",
                        "iterate sorted(...) or an explicitly ordered key "
                        "list so the fold order is deterministic by "
                        "contract",
                    )
                    break


@flow_rule(
    "RN803",
    severity=Severity.ERROR,
    summary="unseeded randomness in experiments/ or sim/",
    rationale="Experiments and the simulator feed reproduced frontiers; an "
    "unseeded Generator or global-state sampler makes runs "
    "unreproducible and CI flaky.  Every RNG must be an explicit "
    "Generator constructed from a recorded seed.",
)
def _rn803_unseeded_randomness(index: ProjectIndex) -> Iterator[Finding]:
    for modkey in sorted(index.modules):
        module = index.modules[modkey]
        parts = Path(module.relpath).parts
        if not any(part in ("experiments", "sim") for part in parts[:-1]):
            continue
        symbols = index.symbol_imports.get(modkey, {})
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                imported = symbols.get(func.id)
                if (
                    func.id == "default_rng"
                    and not node.args
                    and not node.keywords
                    and imported is not None
                    and imported[0].startswith("numpy")
                ):
                    yield (
                        module.relpath,
                        node.lineno,
                        "default_rng() constructed without a seed",
                        "pass an explicit recorded seed: default_rng(seed)",
                    )
                elif (
                    func.id == "Random"
                    and not node.args
                    and imported is not None
                    and imported[0] == "random"
                ):
                    yield (
                        module.relpath,
                        node.lineno,
                        "random.Random() constructed without a seed",
                        "pass an explicit recorded seed: Random(seed)",
                    )
                continue
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            np_random = (
                isinstance(base, ast.Attribute)
                and base.attr == "random"
                and isinstance(base.value, ast.Name)
                and base.value.id in ("np", "numpy")
            )
            if np_random and func.attr == "default_rng":
                if not node.args and not node.keywords:
                    yield (
                        module.relpath,
                        node.lineno,
                        "np.random.default_rng() constructed without a seed",
                        "pass an explicit recorded seed: default_rng(seed)",
                    )
            elif np_random and func.attr in _NP_SAMPLERS:
                yield (
                    module.relpath,
                    node.lineno,
                    f"legacy global np.random.{func.attr}() draws from "
                    "shared unseeded state",
                    "use an explicit np.random.default_rng(seed) Generator",
                )
            elif (
                isinstance(base, ast.Name)
                and base.id == "random"
                and func.attr in _PY_SAMPLERS
            ):
                yield (
                    module.relpath,
                    node.lineno,
                    f"module-level random.{func.attr}() draws from shared "
                    "unseeded state",
                    "use an explicit random.Random(seed) instance",
                )
            elif (
                isinstance(base, ast.Name)
                and base.id == "random"
                and func.attr == "Random"
                and not node.args
            ):
                yield (
                    module.relpath,
                    node.lineno,
                    "random.Random() constructed without a seed",
                    "pass an explicit recorded seed: Random(seed)",
                )
