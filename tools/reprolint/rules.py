"""The project-invariant rule set (see each rule's ``invariant``).

Every rule here is motivated by a property an earlier PR paid for:
deterministic ``seed + index`` replay (PRs 3/6), the typed-error service
boundary (PR 5), crash containment across the process pool (PR 6), and the
fsync-then-rename / ``O_APPEND``-WAL durability discipline of the compile
cache and job journal (PRs 3/6).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set, Tuple, Type

from .core import FileContext, Rule, dotted_name

#: Typed error classes defined by ``repro.errors`` (referencing one inside an
#: ``except Exception`` handler counts as converting to a typed failure).
REPRO_ERROR_NAMES = {
    "ReproError",
    "UnsupportedCircuitError",
    "BackendCapabilityError",
    "MemoryBudgetError",
    "CompilationError",
    "TransientError",
    "JobError",
    "JobCancelledError",
    "JobTimeoutError",
    "WorkerCrashedError",
    "InvalidRequestError",
    "RequestTypeError",
    "MissingObservableError",
}

#: Failure-record types the scheduler uses to capture errors as data.
FAILURE_RECORD_NAMES = {"ItemFailure", "_RemoteFailure"}


def _in_package(path: str, pattern: str) -> bool:
    return re.search(pattern, path) is not None


# ----------------------------------------------------------------------
class RngDisciplineRule(Rule):
    rule_id = "rng-discipline"
    description = (
        "no global-state RNGs, wall-clock, or entropy sources; unseeded "
        "default_rng() only in the designated `rng or default_rng()` idiom"
    )
    invariant = (
        "Bit-identical replay (serial == pooled == resumed-after-SIGKILL) "
        "requires every random draw to flow from the caller's seed + item "
        "index.  A single time.time()/np.random.rand() silently breaks the "
        "journal/resume and retry guarantees of PR 6."
    )

    #: np.random attributes that are part of the Generator API, not the
    #: legacy global-state surface.
    ALLOWED_NP_RANDOM = {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "Philox",
    }

    #: Wall-clock / entropy calls that must never feed results.  Monotonic
    #: clocks (time.monotonic / time.perf_counter) schedule work and time
    #: benchmarks without entering any result, so they stay legal.
    NONDET_CALLS = {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.datetime.now",
        "datetime.utcnow",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }

    NONDET_BARE = {"uuid1", "uuid4", "urandom", "token_bytes", "token_hex"}

    def run(self) -> List:
        # Pre-pass: `x or default_rng()` is the one sanctioned unseeded
        # entry-point idiom (the caller's Generator wins when provided).
        self._or_allowed: Set[int] = set()
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                for value in node.values[1:]:
                    if self._is_default_rng(value):
                        self._or_allowed.add(id(value))
        self.visit(self.ctx.tree)
        return self.findings

    @staticmethod
    def _is_default_rng(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and (dotted_name(node.func) or "").endswith("default_rng")
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "the stdlib `random` module is process-global state; plumb a "
                    "seeded np.random.Generator from the caller instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self.report(
                node,
                "importing from the stdlib `random` module breaks seed+index "
                "replay; use numpy Generators plumbed from the caller",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None:
            if name in self.NONDET_CALLS or name in self.NONDET_BARE:
                self.report(
                    node,
                    f"`{name}()` is a nondeterministic source; results must be "
                    "pure functions of the submission and its seed",
                )
            else:
                match = re.fullmatch(r"(?:np|numpy)\.random\.(\w+)", name)
                if match and match.group(1) not in self.ALLOWED_NP_RANDOM:
                    self.report(
                        node,
                        f"`{name}()` uses numpy's legacy global RNG state; use a "
                        "seeded np.random.default_rng(seed) Generator",
                    )
                elif (
                    self._is_default_rng(node)
                    and not node.args
                    and not node.keywords
                    and id(node) not in self._or_allowed
                ):
                    self.report(
                        node,
                        "unseeded default_rng() outside the `rng or default_rng()` "
                        "entry-point idiom; accept (rng/seed) from the caller",
                    )
        self.generic_visit(node)


# ----------------------------------------------------------------------
class TypedErrorsRule(Rule):
    rule_id = "typed-errors"
    description = (
        "code under src/repro/api/ raises repro.errors types, never bare builtins"
    )
    invariant = (
        "The Device/Job boundary is the future service surface (ROADMAP item "
        "1): clients and the retry classifier route on error *class*.  A bare "
        "ValueError is invisible to RetryPolicy.retryable and unmappable to a "
        "wire-format error code."
    )

    #: Raising any of these builtins directly is a boundary violation.
    BUILTIN_ERRORS = {
        "ValueError",
        "TypeError",
        "RuntimeError",
        "KeyError",
        "IndexError",
        "AttributeError",
        "LookupError",
        "ArithmeticError",
        "OSError",
        "IOError",
        "NotImplementedError",
        "TimeoutError",
        "Exception",
        "BaseException",
    }

    #: File paths the boundary rule applies to.
    SCOPE = r"(^|/)repro/api/[^/]+\.py$"

    def run(self) -> List:
        if not _in_package(self.ctx.path, self.SCOPE):
            return self.findings
        self.visit(self.ctx.tree)
        return self.findings

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name: Optional[str] = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id if exc.id in self.BUILTIN_ERRORS else None
        if name in self.BUILTIN_ERRORS:
            self.report(
                node,
                f"`raise {name}` at the api boundary; raise a repro.errors class "
                "(double-inheriting the builtin keeps old `except` clauses working)",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
class BroadExceptRule(Rule):
    rule_id = "broad-except"
    description = (
        "no bare `except:`; `except Exception` must re-raise, convert to a "
        "typed failure record, or carry a justified pragma"
    )
    invariant = (
        "Crash containment (PR 6) only works because failures keep their "
        "type: the retry classifier, the per-item failure records, and the "
        "original-type re-raise through the pool all depend on exceptions "
        "not being silently swallowed."
    )

    BROAD = {"Exception", "BaseException"}

    def _handler_names(self, node: ast.ExceptHandler) -> List[str]:
        types = []
        if isinstance(node.type, ast.Tuple):
            types = list(node.type.elts)
        elif node.type is not None:
            types = [node.type]
        names = []
        for entry in types:
            name = dotted_name(entry)
            if name is not None:
                names.append(name.rsplit(".", 1)[-1])
        return names

    def _converts_failure(self, node: ast.ExceptHandler) -> bool:
        """True when the handler re-raises or captures the error as typed data."""
        for child in ast.walk(ast.Module(body=node.body, type_ignores=[])):
            if isinstance(child, ast.Raise):
                return True
            if isinstance(child, ast.Name) and (
                child.id in FAILURE_RECORD_NAMES or child.id in REPRO_ERROR_NAMES
            ):
                return True
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` catches SystemExit/KeyboardInterrupt and hides "
                "everything; name the exception classes",
            )
        elif any(name in self.BROAD for name in self._handler_names(node)):
            if not self._converts_failure(node):
                broad = " / ".join(
                    name for name in self._handler_names(node) if name in self.BROAD
                )
                self.report(
                    node,
                    f"`except {broad}` swallows the failure; narrow the type, "
                    "re-raise, convert to an ItemFailure/typed error, or add "
                    "`# reprolint: disable=broad-except -- <why>`",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
class PoolSafetyRule(Rule):
    rule_id = "pool-safety"
    description = (
        "work crossing the process-pool boundary must be module-level, "
        "picklable, and must not mutate module globals or smuggle live state"
    )
    invariant = (
        "The scheduler re-dispatches tasks into fresh worker processes after "
        "crashes; anything unpicklable (lambdas, locks, open handles, live "
        "simulators) or dependent on parent-process globals diverges between "
        "serial and pooled runs or dies with PicklingError mid-retry."
    )

    #: Mutating-method names on module-level containers.
    MUTATORS = {
        "append",
        "add",
        "update",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "setdefault",
    }

    #: Calls whose result is a live backend/simulator instance.
    LIVE_FACTORIES = {"create_backend", "backend_instance"}

    def run(self) -> List:
        tree = self.ctx.tree
        self._module_functions: Set[str] = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        # Functions defined inside another function's body (closures).
        # Methods are *not* nested functions: a bare reference to a method
        # name is some local variable, not the method.
        self._nested_functions: Set[str] = set()
        enclosing: List[ast.AST] = [
            node
            for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for node in ast.walk(top)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for function in enclosing:
            for child in ast.walk(function):
                if (
                    isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and child is not function
                ):
                    self._nested_functions.add(child.name)
        self._module_mutables: Set[str] = set()
        self._module_handles: Set[str] = set()
        for node in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
                    self._module_mutables.add(target.id)
                elif isinstance(value, ast.Call):
                    callee = dotted_name(value.func) or ""
                    tail = callee.rsplit(".", 1)[-1]
                    if tail in ("dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter"):
                        self._module_mutables.add(target.id)
                    elif tail in ("open", "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event"):
                        self._module_handles.add(target.id)

        self._worker_functions: Dict[str, ast.AST] = {}
        self.visit(tree)
        self._check_worker_bodies(tree)
        return self.findings

    # -- dispatch-point detection --------------------------------------
    def _flag_callable(self, node: ast.expr, where: str) -> None:
        if isinstance(node, ast.Lambda):
            self.report(
                node,
                f"lambda passed {where}: lambdas do not pickle across the "
                "process-pool boundary; use a module-level function",
            )
        elif isinstance(node, ast.Name):
            if node.id in self._nested_functions and node.id not in self._module_functions:
                self.report(
                    node,
                    f"nested function `{node.id}` passed {where}: closures do "
                    "not pickle; hoist it to module level",
                )
            elif node.id in self._module_functions:
                self._worker_functions.setdefault(node.id, node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func) or ""
        tail = callee.rsplit(".", 1)[-1]
        if tail == "submit" and node.args:
            # executor.submit(fn, ...) / scheduler submit(tasks) — the task
            # tuples themselves are picked up by visit_Tuple below.
            self._flag_callable(node.args[0], "to submit()")
        if tail in ("Process",):
            for keyword in node.keywords:
                if keyword.arg == "target":
                    self._flag_callable(keyword.value, "as a Process target")
        self.generic_visit(node)

    def visit_Tuple(self, node: ast.Tuple) -> None:
        # Task tuples: (worker_function, payload[, indices, key]).
        if (
            isinstance(node.ctx, ast.Load)
            and len(node.elts) >= 2
            and isinstance(node.elts[0], ast.Name)
        ):
            first = node.elts[0].id
            if first in self._module_functions:
                self._worker_functions.setdefault(first, node)
            elif first in self._nested_functions:
                self._flag_callable(node.elts[0], "in a task tuple")
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Live backend instances in task payloads: a dict in a task tuple
        # holding a name bound from a backend factory call.
        live: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Assign) and isinstance(child.value, ast.Call):
                callee = dotted_name(child.value.func) or ""
                tail = callee.rsplit(".", 1)[-1]
                if tail in self.LIVE_FACTORIES or tail.endswith("Simulator"):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            live.add(target.id)
        if live:
            for child in ast.walk(node):
                if not (isinstance(child, ast.Tuple) and len(child.elts) >= 2):
                    continue
                head = child.elts[0]
                if not (isinstance(head, ast.Name) and head.id in self._module_functions):
                    continue
                for element in child.elts[1:]:
                    values = element.values if isinstance(element, ast.Dict) else [element]
                    for value in values:
                        if isinstance(value, ast.Name) and value.id in live:
                            self.report(
                                value,
                                f"live backend instance `{value.id}` rides in a task "
                                "payload; it will not pickle into a pool worker — "
                                "hydrate backends inside the worker instead",
                            )
        self.generic_visit(node)

    # -- worker-body checks --------------------------------------------
    def _check_worker_bodies(self, tree: ast.Module) -> None:
        interesting = self._module_mutables | self._module_handles
        if not interesting or not self._worker_functions:
            return
        for top in tree.body:
            if not isinstance(top, ast.FunctionDef):
                continue
            if top.name not in self._worker_functions:
                continue
            for child in ast.walk(top):
                target_name: Optional[str] = None
                if isinstance(child, (ast.Assign, ast.AugAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    for target in targets:
                        root = target
                        while isinstance(root, ast.Subscript):
                            root = root.value
                        if isinstance(root, ast.Name) and root.id in self._module_mutables:
                            if isinstance(target, ast.Subscript) or isinstance(child, ast.AugAssign):
                                target_name = root.id
                elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                    receiver = child.func.value
                    if (
                        isinstance(receiver, ast.Name)
                        and receiver.id in self._module_mutables
                        and child.func.attr in self.MUTATORS
                    ):
                        target_name = receiver.id
                elif isinstance(child, ast.Name) and child.id in self._module_handles:
                    self.report(
                        child,
                        f"worker-executed `{top.name}` references module-level "
                        f"handle `{child.id}` (lock/file); handles do not survive "
                        "the fork/pickle boundary — open them inside the worker",
                    )
                if target_name is not None:
                    self.report(
                        child,
                        f"worker-executed `{top.name}` mutates module global "
                        f"`{target_name}`; workers mutate their own copy (or race) "
                        "— return state through the task result instead",
                    )


# ----------------------------------------------------------------------
class AtomicWriteRule(Rule):
    rule_id = "atomic-write"
    description = (
        "persisted writes go through the audited atomic-write/WAL helpers "
        "(write-temp + fsync + os.replace, or the O_APPEND fingerprinted WAL)"
    )
    invariant = (
        "Journal manifests and result artifacts must never be observable "
        "half-written: a crash mid-write must cost work, not correctness.  "
        "Raw open(..., 'w') can tear; only the audited helpers in "
        "repro.atomicio (and the audited journal WAL appender) may touch the "
        "filesystem in write mode."
    )

    #: (path regex, audited qualnames) — raw writes inside these are the
    #: implementations of the discipline itself.
    AUDITED: Tuple[Tuple[str, Set[str]], ...] = (
        (r"(^|/)repro/atomicio\.py$", {"*"}),
        (r"(^|/)repro/api/journal\.py$", {"JobJournal.checkpoint_row"}),
    )

    WRITE_MODE = re.compile(r"[wax+]")

    def run(self) -> List:
        self._audited: Set[str] = set()
        for pattern, qualnames in self.AUDITED:
            if _in_package(self.ctx.path, pattern):
                self._audited |= qualnames
        self._stack: List[str] = []
        self.visit(self.ctx.tree)
        return self.findings

    def _inside_audited(self) -> bool:
        if "*" in self._audited:
            return True
        qualname = ".".join(self._stack)
        return any(qualname == audited or qualname.startswith(audited + ".") for audited in self._audited)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _mode_of(self, node: ast.Call, position: int) -> Optional[str]:
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                value = keyword.value.value
                return value if isinstance(value, str) else None
        if len(node.args) > position and isinstance(node.args[position], ast.Constant):
            value = node.args[position].value
            return value if isinstance(value, str) else None
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if not self._inside_audited():
            name = dotted_name(node.func) or ""
            tail = name.rsplit(".", 1)[-1]
            if name == "open" or name == "os.fdopen" or tail == "fdopen":
                mode = self._mode_of(node, 1)
                if mode is not None and self.WRITE_MODE.search(mode):
                    self.report(
                        node,
                        f"raw `{name}(..., {mode!r})`: persisted writes must go "
                        "through repro.atomicio (write-temp + fsync + os.replace) "
                        "or an audited WAL appender",
                    )
            elif name == "os.write":
                self.report(
                    node,
                    "raw `os.write`: only the audited O_APPEND WAL appender may "
                    "write descriptors directly",
                )
            elif name == "os.open":
                flag_source = ast.dump(node)
                if any(flag in flag_source for flag in ("O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT")):
                    self.report(
                        node,
                        "raw writable `os.open`: route the write through "
                        "repro.atomicio or an audited WAL appender",
                    )
            elif tail in ("write_text", "write_bytes") and isinstance(node.func, ast.Attribute):
                self.report(
                    node,
                    f"`.{tail}()` writes in place (torn on crash); use "
                    "repro.atomicio.atomic_write_text/bytes",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
class NoPrintRule(Rule):
    rule_id = "no-print"
    description = "library code never calls print() (CLI mains are baselined)"
    invariant = (
        "src/repro is imported by services, pool workers and test harnesses; "
        "stray stdout corrupts machine-readable output (benchmark JSON, "
        "DIMACS dumps) and interleaves nondeterministically under the pool."
    )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self.report(
                node,
                "print() in library code; return/log the value instead (CLI "
                "entry points are grandfathered in the baseline)",
            )
        self.generic_visit(node)


#: Registration order == report order.
ALL_RULES: Tuple[Type[Rule], ...] = (
    RngDisciplineRule,
    TypedErrorsRule,
    BroadExceptRule,
    PoolSafetyRule,
    AtomicWriteRule,
    NoPrintRule,
)
