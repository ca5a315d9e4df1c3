"""Pass 1 of the flow analyzer: project symbol table + call graph.

:class:`ProjectIndex` is built once per lint run from every parsed
module in the linted tree.  It resolves, with nothing but the ASTs:

* a **module table** keyed by dotted path relative to the lint root
  (``service/cache.py`` → ``service.cache``);
* per-module **import maps** (``import x as y`` module aliases and
  ``from m import f`` symbol aliases, including relative imports);
* every **class** (with its methods and base names) and every top-level
  **function**, addressed by qualified name ``modkey::Class.method`` /
  ``modkey::function``;
* per-class **instance-attribute types** for the first-order patterns
  ``self.x = SomeClass(...)`` (also through ``a or SomeClass(...)``
  defaults), ``self.x = param`` where the method annotates
  ``param: SomeClass``, and annotated properties / attributes whose
  annotation names a project class — this is what lets the call graph
  follow ``self.core.solve(...)`` from the HTTP server into the asyncio
  core and ``self.service.lookup(...)`` from there into the service;
* the **call graph** itself: for each function, the set of project
  functions it can call through direct names, ``self.`` method calls,
  imported-module attributes and first-order typed instance attributes.

The resolution is deliberately first-order (no dataflow through locals,
no higher-order functions): precise enough to carry the RT7xx/RN8xx
rules in :mod:`repro.lint.flow`, cheap enough to run on every deep lint.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.astrules import SourceModule

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ProjectIndex",
    "module_key",
    "build_index",
]


def module_key(relpath: str) -> str:
    """Dotted module key for a lint-root-relative path.

    ``service/cache.py`` → ``service.cache``; package ``__init__.py``
    files collapse onto the package itself (``service/__init__.py`` →
    ``service``; the root ``__init__.py`` → ``""``).
    """
    parts = list(Path(relpath).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method in the project, addressed by qualname."""

    qualname: str  #: ``modkey::Class.method`` or ``modkey::function``
    modkey: str
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None = None  #: owning class name, ``None`` for module level

    @property
    def name(self) -> str:
        """Bare function name (no class / module qualification)."""
        return self.node.name

    @property
    def display(self) -> str:
        """Human-oriented name used in diagnostics (``Class.method``)."""
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    """One class: methods, base names and first-order attribute types."""

    qualname: str  #: ``modkey::ClassName``
    name: str
    modkey: str
    module: SourceModule
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` → class qualname, for attrs assigned/annotated with
    #: a resolvable project class (includes annotated @property returns).
    attr_types: dict[str, str] = field(default_factory=dict)


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ProjectIndex:
    """The whole-program symbol table + call graph (see module docstring)."""

    modules: dict[str, SourceModule] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: modkey → alias → dotted module target (``import x.y as z``).
    module_imports: dict[str, dict[str, str]] = field(default_factory=dict)
    #: modkey → alias → (dotted module, symbol) (``from m import f as g``).
    symbol_imports: dict[str, dict[str, tuple[str, str]]] = field(
        default_factory=dict
    )
    #: caller qualname → callee qualnames (sorted for determinism).
    call_graph: dict[str, tuple[str, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Lookup helpers
    # ------------------------------------------------------------------ #

    def resolve_module(self, dotted: str, *, current: str = "") -> str | None:
        """Map a dotted import target onto an indexed module key.

        Absolute imports inside the linted package carry the package's
        own name (``repro.service.codec``) which the lint-root-relative
        keys do not; leading components are stripped one at a time until
        a key matches (``service.codec``).
        """
        parts = dotted.split(".")
        for start in range(len(parts)):
            candidate = ".".join(parts[start:])
            if candidate in self.modules:
                return candidate
        del current
        return None

    def class_in_module(self, modkey: str, name: str) -> ClassInfo | None:
        """The class ``name`` defined in ``modkey``, if indexed."""
        return self.classes.get(f"{modkey}::{name}")

    def function_in_module(self, modkey: str, name: str) -> FunctionInfo | None:
        """The top-level function ``name`` defined in ``modkey``."""
        return self.functions.get(f"{modkey}::{name}")

    def resolve_symbol(
        self, modkey: str, name: str
    ) -> FunctionInfo | ClassInfo | None:
        """Resolve a bare name used inside ``modkey`` to a project object.

        Checks, in order: a function or class defined in the module
        itself, then the module's ``from … import`` symbol table.
        """
        local = self.function_in_module(modkey, name) or self.class_in_module(
            modkey, name
        )
        if local is not None:
            return local
        imported = self.symbol_imports.get(modkey, {}).get(name)
        if imported is None:
            return None
        source_mod, symbol = imported
        target = self.resolve_module(source_mod, current=modkey)
        if target is None:
            return None
        return self.function_in_module(target, symbol) or self.class_in_module(
            target, symbol
        )

    def method_of(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """Look up a method on ``cls``, following project base classes."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                resolved = self.resolve_symbol(current.modkey, base)
                if isinstance(resolved, ClassInfo):
                    stack.append(resolved)
        return None

    def callees(self, qualname: str) -> tuple[str, ...]:
        """Direct callees of one function (empty when unknown)."""
        return self.call_graph.get(qualname, ())

    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> FunctionInfo | None:
        """Resolve one call site inside ``fn`` to a project function.

        Same first-order resolution the call graph is built from, exposed
        so flow rules can attribute *specific* call sites (e.g. "this call
        is made while holding the lock") rather than whole functions.
        """
        return _callee_of(self, fn, call)

    def reachable(
        self, roots: Iterable[str], *, max_depth: int | None = None
    ) -> dict[str, tuple[int, str | None]]:
        """BFS over the call graph: qualname → ``(depth, parent)``.

        Parent pointers reconstruct one shortest call chain for
        diagnostics; roots have ``parent=None``.  Roots are visited in
        the given order and neighbours in sorted order, so the chain
        chosen for any function is deterministic.
        """
        out: dict[str, tuple[int, str | None]] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root not in out:
                out[root] = (0, None)
                queue.append(root)
        while queue:
            current = queue.popleft()
            depth = out[current][0]
            if max_depth is not None and depth >= max_depth:
                continue
            for callee in self.callees(current):
                if callee not in out:
                    out[callee] = (depth + 1, current)
                    queue.append(callee)
        return out

    def call_chain(
        self, target: str, reach: Mapping[str, tuple[int, str | None]]
    ) -> list[str]:
        """Root → … → ``target`` chain from :meth:`reachable` output."""
        chain = [target]
        parent = reach[target][1]
        while parent is not None:
            chain.append(parent)
            parent = reach[parent][1]
        return list(reversed(chain))


# --------------------------------------------------------------------- #
# Index construction
# --------------------------------------------------------------------- #


def _collect_imports(
    index: ProjectIndex, modkey: str, tree: ast.Module
) -> None:
    module_imports: dict[str, str] = {}
    symbol_imports: dict[str, tuple[str, str]] = {}
    package = modkey.rsplit(".", 1)[0] if "." in modkey else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                # `import a.b.c` binds `a`; only a full asname keeps the
                # dotted target addressable for first-order resolution.
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module_imports[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: `from .codec import x` inside
                # service.cache resolves against the package `service`.
                prefix_parts = modkey.split(".") if modkey else []
                # level 1 = current package; each extra level pops one.
                keep = len(prefix_parts) - (node.level - 1)
                if modkey and not _is_package(index, modkey):
                    keep -= 1
                prefix = ".".join(prefix_parts[: max(keep, 0)])
                base = f"{prefix}.{base}".strip(".") if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                symbol_imports[bound] = (base, alias.name)
    index.module_imports[modkey] = module_imports
    index.symbol_imports[modkey] = symbol_imports
    del package


def _is_package(index: ProjectIndex, modkey: str) -> bool:
    """Whether ``modkey`` names a package (``__init__``-backed key)."""
    module = index.modules.get(modkey)
    if module is None:
        return False
    return Path(module.relpath).name == "__init__.py"


def _collect_definitions(
    index: ProjectIndex, modkey: str, module: SourceModule
) -> None:
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                qualname=f"{modkey}::{node.name}",
                modkey=modkey,
                module=module,
                node=node,
            )
            index.functions[info.qualname] = info
        elif isinstance(node, ast.ClassDef):
            bases = tuple(
                name
                for base in node.bases
                if (name := _dotted_name(base)) is not None
            )
            cls = ClassInfo(
                qualname=f"{modkey}::{node.name}",
                name=node.name,
                modkey=modkey,
                module=module,
                node=node,
                bases=tuple(base.split(".")[-1] for base in bases),
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(
                        qualname=f"{modkey}::{node.name}.{item.name}",
                        modkey=modkey,
                        module=module,
                        node=item,
                        cls=node.name,
                    )
                    cls.methods[item.name] = info
                    index.functions[info.qualname] = info
            index.classes[cls.qualname] = cls


def _class_from_expr(
    index: ProjectIndex, modkey: str, expr: ast.expr
) -> ClassInfo | None:
    """The project class an expression instantiates or names, if any.

    Handles ``SomeClass(...)``, ``mod.SomeClass(...)``, the common
    ``given or SomeClass(...)`` default idiom, and bare annotations
    (``SomeClass`` / ``mod.SomeClass`` / ``"SomeClass"``).
    """
    if isinstance(expr, ast.BoolOp):
        for operand in expr.values:
            found = _class_from_expr(index, modkey, operand)
            if found is not None:
                return found
        return None
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        # String annotation: take the last dotted component.
        name = expr.value.strip().strip("'\"").split("|")[0].strip()
        name = name.split("[")[0].split(".")[-1]
        resolved = index.resolve_symbol(modkey, name)
        return resolved if isinstance(resolved, ClassInfo) else None
    if isinstance(expr, ast.Name):
        resolved = index.resolve_symbol(modkey, expr.id)
        return resolved if isinstance(resolved, ClassInfo) else None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        alias = expr.value.id
        target_mod = index.module_imports.get(modkey, {}).get(alias)
        if target_mod is None:
            return None
        resolved_mod = index.resolve_module(target_mod, current=modkey)
        if resolved_mod is None:
            return None
        return index.class_in_module(resolved_mod, expr.attr)
    return None


def _collect_attr_types(index: ProjectIndex, cls: ClassInfo) -> None:
    modkey = cls.modkey
    # Annotated properties / methods returning a project class: lets the
    # graph follow `self.service.solve(...)` through `-> SchedulingService`.
    for name, method in cls.methods.items():
        if method.node.returns is not None:
            target = _class_from_expr(index, modkey, method.node.returns)
            if target is not None and any(
                isinstance(deco, ast.Name)
                and deco.id in ("property", "cached_property")
                or isinstance(deco, ast.Attribute)
                and deco.attr == "cached_property"
                for deco in method.node.decorator_list
            ):
                cls.attr_types[name] = target.qualname
    # Class-level annotated attributes (dataclass fields).
    for item in cls.node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            target = _class_from_expr(index, modkey, item.annotation)
            if target is not None:
                cls.attr_types[item.target.id] = target.qualname
    # `self.x = SomeClass(...)` in any method (usually __init__), and
    # `self.x = param` where the method annotates `param: SomeClass`.
    for method in cls.methods.values():
        args = method.node.args
        annotations = {
            arg.arg: arg.annotation
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if arg.annotation is not None
        }
        for node in ast.walk(method.node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if isinstance(value, ast.Name) and value.id in annotations:
                value = annotations[value.id]
            for tgt in node.targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and isinstance(tgt.value, ast.Name)
                    and tgt.value.id == "self"
                ):
                    found = _class_from_expr(index, modkey, value)
                    if found is not None:
                        cls.attr_types.setdefault(tgt.attr, found.qualname)


def _callee_of(
    index: ProjectIndex, fn: FunctionInfo, call: ast.Call
) -> FunctionInfo | None:
    """Resolve one call site to a project function, or ``None``."""
    func = call.func
    modkey = fn.modkey
    owner = index.classes.get(f"{modkey}::{fn.cls}") if fn.cls else None

    if isinstance(func, ast.Name):
        resolved = index.resolve_symbol(modkey, func.id)
        if isinstance(resolved, FunctionInfo):
            return resolved
        if isinstance(resolved, ClassInfo):
            return index.method_of(resolved, "__init__")
        return None

    if not isinstance(func, ast.Attribute):
        return None

    base = func.value
    # self.method(...)
    if isinstance(base, ast.Name):
        if base.id == "self" and owner is not None:
            return index.method_of(owner, func.attr)
        # module_alias.func(...)
        target_mod = index.module_imports.get(modkey, {}).get(base.id)
        if target_mod is not None:
            resolved_mod = index.resolve_module(target_mod, current=modkey)
            if resolved_mod is not None:
                found = index.function_in_module(resolved_mod, func.attr)
                if found is not None:
                    return found
                found_cls = index.class_in_module(resolved_mod, func.attr)
                if found_cls is not None:
                    return index.method_of(found_cls, "__init__")
        # ClassName.method(...) (unbound / classmethod style)
        resolved = index.resolve_symbol(modkey, base.id)
        if isinstance(resolved, ClassInfo):
            return index.method_of(resolved, func.attr)
        return None

    # self.attr.method(...) through a first-order typed attribute.
    if (
        isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Name)
        and base.value.id == "self"
        and owner is not None
    ):
        attr_cls_qualname = owner.attr_types.get(base.attr)
        if attr_cls_qualname is not None:
            attr_cls = index.classes.get(attr_cls_qualname)
            if attr_cls is not None:
                return index.method_of(attr_cls, func.attr)
    return None


def _collect_calls(index: ProjectIndex) -> None:
    for fn in index.functions.values():
        callees: set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                callee = _callee_of(index, fn, node)
                if callee is not None and callee.qualname != fn.qualname:
                    callees.add(callee.qualname)
        index.call_graph[fn.qualname] = tuple(sorted(callees))


def build_index(modules: Sequence[SourceModule]) -> ProjectIndex:
    """Build the whole-program index over already-parsed modules."""
    index = ProjectIndex()
    for module in modules:
        index.modules[module_key(module.relpath)] = module
    for modkey, module in index.modules.items():
        _collect_imports(index, modkey, module.tree)
    for modkey, module in index.modules.items():
        _collect_definitions(index, modkey, module)
    for cls in index.classes.values():
        _collect_attr_types(index, cls)
    _collect_calls(index)
    return index
