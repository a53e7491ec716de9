"""The project-specific checkers.

Each rule encodes an invariant the codebase depends on, with the defect
class that motivated it:

* ``mmap-escape`` — PR 1's use-after-unmap segfaults: a function handing
  out a view of a memory-mapped array lets the caller keep a pointer into
  pages that vanish on ``close()``.
* ``lock-discipline`` — the writer/executor races: an attribute guarded by
  ``with self._lock:`` in one method and written bare in another is not
  guarded at all.
* ``lock-blocking-call`` — joining threads or waiting on futures while
  holding a lock is the classic self-deadlock shape.
* ``unseeded-rng`` — hidden nondeterminism in kernels and benchmarks makes
  reproduction results unreproducible.
* ``missing-dtype`` — allocations in hot kernels without an explicit
  ``dtype=`` drift to platform defaults and silently double memory traffic.
* ``csr-python-loop`` — Python-level loops over CSR arrays are the O(n)
  scalar fallbacks the vectorized kernels exist to avoid.
* ``silent-except`` — swallowed exceptions in drivers hide the failure
  until it resurfaces somewhere unrelated.
* ``mutable-default`` — mutable default arguments and module-level mutable
  state are shared across calls and threads by accident.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.core import Rule

__all__ = ["ALL_RULES", "rule_descriptions"]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _dotted_name(node: ast.AST) -> Optional[str]:
    """``np.random.rand`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name/Attribute (``x.col`` -> ``col``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_lockish(expr: ast.AST) -> bool:
    """Whether a ``with`` context expression looks like a lock acquire."""
    name = _terminal_name(expr)
    if name is None and isinstance(expr, ast.Call):
        name = _terminal_name(expr.func)
    return name is not None and "lock" in name.lower()


def _self_attr_path(node: ast.AST) -> Optional[str]:
    """``self.a.b`` -> ``a.b``; ``self.a[i]`` -> ``a``; else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return ".".join(reversed(parts))
    return None


def _imports_module(tree: ast.Module, module: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == module for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == module:
                return True
    return False


def _uses_locks(tree: ast.Module) -> bool:
    """Whether the module can hold locks: imports ``threading`` or pulls
    the sanitizer's ordered-lock constructors from :mod:`repro.sanitize`."""
    if _imports_module(tree, "threading"):
        return True
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module.endswith("sanitize")
        ):
            if any(a.name in ("make_lock", "OrderedLock")
                   for a in node.names):
                return True
    return False


# ----------------------------------------------------------------------
# 1. mmap / zero-copy escape
# ----------------------------------------------------------------------
class MmapEscapeRule(Rule):
    """Returning views of memory-mapped arrays without a copy."""

    name = "mmap-escape"
    description = (
        "function returns a slice/view of a memory-mapped or shared-memory "
        "array without copying; the view dangles (and segfaults) once the "
        "map is closed or the segment unlinked"
    )
    motivation = (
        "PR 1's use-after-unmap crashes: returning a view of a "
        "`np.memmap` lets callers keep pointers into pages that vanish "
        "on `close()`. The same dangling-view shape exists for "
        "shared-memory arenas, so `.shared_view(...)` results "
        "(`repro.parallel.shared_arena`) are tainted too — a view of an "
        "unlinked segment is a segfault in waiting. Flags returning (or "
        "passing through an unknown call) anything assigned from "
        "`np.memmap(...)`/`.shared_view(...)` without an intervening "
        "`np.array(..., copy=True)` / `.copy()`."
    )
    scopes = ("service/", "utils/", "parallel/", "runtime/", "graph/io")

    #: call names that materialize a copy and therefore defuse the escape
    SAFE_CALLS = {"array", "ascontiguousarray", "copy", "deepcopy"}

    #: trailing call names whose result aliases externally-owned memory:
    #: ``np.memmap`` (rank-store artifacts) and ``.shared_view`` (arena
    #: segments published by repro.parallel.shared_arena)
    VIEW_CALLS = {"memmap", "shared_view"}

    def run(self, tree: ast.Module) -> None:
        self._tainted_names: Set[str] = set()
        self._tainted_attrs: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and self._is_memmap_call(
                node.value
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._tainted_names.add(target.id)
                    else:
                        attr = _self_attr_path(target)
                        if attr:
                            self._tainted_attrs.add(attr)
        self.visit(tree)

    def _is_memmap_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        dotted = _dotted_name(node.func)
        return (
            dotted is not None
            and dotted.split(".")[-1] in self.VIEW_CALLS
        )

    def _tainted(self, node: ast.AST) -> Optional[str]:
        """The mapped array's name if ``node`` aliases one, else None."""
        while isinstance(node, ast.Subscript):
            node = node.value
        attr = _self_attr_path(node)
        if attr is not None and attr in self._tainted_attrs:
            return f"self.{attr}"
        if isinstance(node, ast.Name) and node.id in self._tainted_names:
            return node.id
        return None

    def visit_Return(self, node: ast.Return) -> None:
        value = node.value
        source: Optional[str] = None
        if value is not None:
            source = self._tainted(value)
            if source is None and self._is_memmap_call(value):
                source = _dotted_name(value.func)
            if source is None and isinstance(value, ast.Call):
                func_name = _terminal_name(value.func)
                if func_name not in self.SAFE_CALLS:
                    for arg in value.args:
                        source = self._tainted(arg)
                        if source:
                            break
        if source:
            self.report(
                node,
                f"returns a view of memory-mapped array '{source}' "
                "without copying; wrap in np.array(..., copy=True) or "
                "justify with a disable comment",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# 2. lock discipline
# ----------------------------------------------------------------------
class LockDisciplineRule(Rule):
    """Attributes written both under and outside a lock."""

    name = "lock-discipline"
    description = (
        "an instance attribute is written under `with self._lock:` in one "
        "place and without the lock in another — the lock protects nothing"
    )
    motivation = (
        "The writer/executor races: an attribute written under "
        "`with self._lock:` in one method and bare in another is not "
        "protected at all. The real `RankStoreWriter._closed` race this "
        "rule caught is fixed in the same PR that introduced it."
    )
    scopes = ()  # any module that imports threading

    #: constructor-shaped methods whose writes happen before sharing
    EXEMPT_METHODS = {"__init__", "__new__", "__post_init__"}

    def run(self, tree: ast.Module) -> None:
        if not _uses_locks(tree):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(node)

    def _check_class(self, cls: ast.ClassDef) -> None:
        # attr path -> (locked_writes, unlocked_write_nodes)
        writes: Dict[str, Tuple[int, List[ast.AST]]] = {}

        def record(target: ast.AST, node: ast.AST, locked: bool) -> None:
            attr = _self_attr_path(target)
            if attr is None or "lock" in attr.lower():
                return
            locked_count, unlocked = writes.setdefault(attr, (0, []))
            if locked:
                writes[attr] = (locked_count + 1, unlocked)
            else:
                unlocked.append(node)

        def walk(node: ast.AST, depth: int) -> None:
            if isinstance(node, ast.With):
                held = depth + sum(
                    1 for item in node.items
                    if _is_lockish(item.context_expr)
                )
                for child in node.body:
                    walk(child, held)
                return
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record(target, node, depth > 0)
            elif isinstance(node, ast.AugAssign) or (
                isinstance(node, ast.AnnAssign) and node.value is not None
            ):
                record(node.target, node, depth > 0)
            for child in ast.iter_child_nodes(node):
                walk(child, depth)

        for item in cls.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name not in self.EXEMPT_METHODS
            ):
                for stmt in item.body:
                    walk(stmt, 0)

        for attr, (locked_count, unlocked) in sorted(writes.items()):
            if locked_count and unlocked:
                for node in unlocked:
                    self.report(
                        node,
                        f"attribute 'self.{attr}' of class {cls.name} is "
                        "written here without the lock but under "
                        "`with ...lock:` elsewhere",
                    )


# ----------------------------------------------------------------------
# 3. blocking calls while holding a lock
# ----------------------------------------------------------------------
class LockBlockingCallRule(Rule):
    """join()/result()/wait()/sleep()/open() inside a lock's scope."""

    name = "lock-blocking-call"
    description = (
        "a blocking call (thread join, Future.result, wait, sleep, open) "
        "is made while holding a lock — the self-deadlock shape"
    )
    motivation = (
        "Self-deadlock shape: `Thread.join()`, `Future.result()`, "
        "`wait()`, `sleep()`, or `open()` while holding a lock."
    )
    scopes = ()  # any module that imports threading

    BLOCKING_METHODS = {"join", "result", "wait", "sleep"}
    BLOCKING_FUNCTIONS = {"open", "sleep"}

    def run(self, tree: ast.Module) -> None:
        if not _uses_locks(tree):
            return
        self._walk(tree, in_lock=False)

    def _walk(self, node: ast.AST, in_lock: bool) -> None:
        if isinstance(node, ast.With):
            held = in_lock or any(
                _is_lockish(item.context_expr) for item in node.items
            )
            for child in node.body:
                self._walk(child, held)
            return
        if in_lock and isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = (
                    func.attr if func.attr in self.BLOCKING_METHODS else None
                )
            elif isinstance(func, ast.Name):
                name = (
                    func.id if func.id in self.BLOCKING_FUNCTIONS else None
                )
            if name:
                self.report(
                    node,
                    f"blocking call '{name}()' while holding a lock; "
                    "release the lock first",
                )
        for child in ast.iter_child_nodes(node):
            self._walk(child, in_lock)


# ----------------------------------------------------------------------
# 4. unseeded RNG
# ----------------------------------------------------------------------
class UnseededRngRule(Rule):
    """Global-state numpy RNG or seedless default_rng in hot/bench code."""

    name = "unseeded-rng"
    description = (
        "numpy's global-state RNG (np.random.rand & co.) or "
        "np.random.default_rng() with no seed makes runs nondeterministic"
    )
    motivation = (
        "Nondeterministic reproduction results. Flags numpy's "
        "global-state RNG (`np.random.rand` & co.) and "
        "`np.random.default_rng()` with no seed."
    )
    scopes = ("programs/", "pagerank/", "benchmarks/")

    LEGACY = {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "choice", "shuffle", "permutation", "uniform", "normal",
        "poisson", "exponential", "binomial", "sample",
    }

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            if len(parts) >= 3 and parts[-2] == "random" and parts[0] in (
                "np", "numpy"
            ):
                leaf = parts[-1]
                if leaf in self.LEGACY:
                    self.report(
                        node,
                        f"global-state RNG call '{dotted}'; use a seeded "
                        "np.random.default_rng(seed) generator",
                    )
                elif leaf == "default_rng" and (
                    not node.args
                    or (
                        isinstance(node.args[0], ast.Constant)
                        and node.args[0].value is None
                    )
                ):
                    self.report(
                        node,
                        "np.random.default_rng() without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# 5. dtype drift in hot allocations
# ----------------------------------------------------------------------
class MissingDtypeRule(Rule):
    """np.zeros/ones/empty/full without an explicit dtype in hot kernels."""

    name = "missing-dtype"
    description = (
        "an ndarray allocation in a hot kernel has no explicit dtype=, "
        "so precision and memory traffic drift with the platform default"
    )
    motivation = (
        "dtype drift: `np.zeros/ones/empty/full` without an explicit "
        "`dtype=` inherits the platform default, silently changing "
        "precision and doubling memory traffic in hot kernels."
    )
    scopes = (
        "pagerank/", "programs/",
        "graph/temporal_csr", "graph/io",
        "benchmarks/bench_edge_compaction",
    )

    #: allocator -> index of the positional dtype parameter
    ALLOCATORS = {"zeros": 1, "ones": 1, "empty": 1, "full": 2}

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            leaf = parts[-1]
            if (
                len(parts) == 2
                and parts[0] in ("np", "numpy")
                and leaf in self.ALLOCATORS
            ):
                has_kw = any(k.arg == "dtype" for k in node.keywords)
                has_pos = len(node.args) > self.ALLOCATORS[leaf]
                if not has_kw and not has_pos:
                    self.report(
                        node,
                        f"'{dotted}' allocation without an explicit "
                        "dtype=; hot-kernel arrays must pin their dtype",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# 6. Python loops over CSR arrays
# ----------------------------------------------------------------------
class CsrPythonLoopRule(Rule):
    """Scalar Python loops over CSR structure arrays."""

    name = "csr-python-loop"
    description = (
        "a Python-level for loop iterates over a CSR structure array "
        "(O(nnz) interpreter work); use the vectorized segment primitives"
    )
    motivation = (
        "O(nnz) interpreter loops over CSR structure arrays (`indptr`, "
        "`indices`, `rowA`, ...) — the scalar fallback the vectorized "
        "segment primitives exist to avoid."
    )
    scopes = (
        "pagerank/", "graph/", "programs/",
        "benchmarks/bench_edge_compaction",
    )

    CSR_NAMES = {
        "indptr", "indices", "col", "cols", "row", "rows", "rowa", "cola",
        "timea", "row_ptr", "col_indices", "nnz_index",
    }

    def _csr_name(self, node: ast.AST) -> Optional[str]:
        name = _terminal_name(node)
        if name is not None and name.lower() in self.CSR_NAMES:
            return name
        return None

    def visit_For(self, node: ast.For) -> None:
        target = None
        it = node.iter
        direct = self._csr_name(it)
        if direct:
            target = direct
        elif isinstance(it, ast.Call) and _terminal_name(it.func) == "range":
            if it.args:
                arg = it.args[-1]  # range(n) and range(0, n) both end in n
                if (
                    isinstance(arg, ast.Call)
                    and _terminal_name(arg.func) == "len"
                    and arg.args
                ):
                    target = self._csr_name(arg.args[0])
                elif isinstance(arg, ast.Attribute) and arg.attr in (
                    "size", "shape"
                ):
                    target = self._csr_name(arg.value)
                elif isinstance(arg, ast.Subscript) and isinstance(
                    arg.value, ast.Attribute
                ) and arg.value.attr == "shape":
                    target = self._csr_name(arg.value.value)
        if target:
            self.report(
                node,
                f"Python loop over CSR array '{target}'; vectorize with "
                "numpy / repro.utils.segments instead",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# 7. silent exception swallowing
# ----------------------------------------------------------------------
class SilentExceptRule(Rule):
    """Bare excepts and pass-only handlers."""

    name = "silent-except"
    description = (
        "a bare `except:` or a handler whose body is only pass/continue "
        "swallows failures; log, narrow, or re-raise"
    )
    motivation = (
        "Swallowed failures: bare `except:` or handlers whose body is "
        "only `pass`/`continue`/`...` hide the error until it resurfaces "
        "somewhere unrelated."
    )
    scopes = ()

    @staticmethod
    def _is_noop(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            return True
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt too; "
                "name the exception type",
            )
        elif all(self._is_noop(s) for s in node.body):
            caught = _dotted_name(node.type) or "exception"
            self.report(
                node,
                f"`except {caught}:` silently swallows the error; log it "
                "or re-raise",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# 8. mutable defaults and module-level mutable state
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    """Mutable default arguments; lowercase module-level mutable bindings."""

    name = "mutable-default"
    description = (
        "mutable default arguments are shared across calls; lowercase "
        "module-level list/dict/set bindings are hidden global state"
    )
    motivation = (
        "Accidental shared state: mutable default arguments, and "
        "lowercase module-level `list`/`dict`/`set` bindings (hidden "
        "globals). `UPPER_CASE` names are treated as frozen-by-"
        "convention constants."
    )
    scopes = ()

    MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict"}

    def _is_mutable_literal(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) in self.MUTABLE_CALLS
        )

    def run(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and not target.id.startswith("__")
                    and target.id != target.id.upper()
                    and self._is_mutable_literal(stmt.value)
                ):
                    self.report(
                        stmt,
                        f"module-level mutable binding '{target.id}'; use "
                        "an UPPER_CASE constant name (treated as frozen by "
                        "convention) or move it into a class/function",
                    )
        self.visit(tree)

    def _check_function(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable_literal(default):
                self.report(
                    default,
                    f"mutable default argument in '{node.name}()'; "
                    "default to None and allocate inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)


ALL_RULES: Tuple[type, ...] = (
    MmapEscapeRule,
    LockDisciplineRule,
    LockBlockingCallRule,
    UnseededRngRule,
    MissingDtypeRule,
    CsrPythonLoopRule,
    SilentExceptRule,
    MutableDefaultRule,
)


def rule_descriptions() -> Dict[str, str]:
    """Rule name -> one-line description (for ``lint --list-rules``)."""
    return {r.name: r.description for r in ALL_RULES}
