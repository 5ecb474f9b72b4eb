"""``repro lint``: an AST-based determinism/correctness linter.

Generic linters do not know that this package is a cycle-accurate
simulator whose results must be bit-reproducible from ``RunConfig.seed``
alone.  The rules here encode exactly that contract:

=======  ========  =====================================================
ID       severity  what it catches
=======  ========  =====================================================
VRC001   error     unseeded randomness (``random.Random()`` with no
                   seed, global ``random.*`` draws, legacy
                   ``numpy.random.*`` global-state draws, bare
                   ``default_rng()``) — any of these makes cycle counts
                   depend on interpreter state instead of the config
VRC002   error     wall-clock reads (``time.time``/``perf_counter``/
                   ``monotonic``, ``datetime.now``) outside the
                   telemetry/profiler modules — host timing must never
                   reach simulated state or digests
VRC003   warning   iteration over a ``set``/``frozenset`` expression
                   (including through ``list()``/``tuple()`` wrappers)
                   — set order is salted per process, so any
                   order-sensitive consumer silently loses determinism;
                   wrap the iterable in ``sorted(...)``
VRC004   error     bare ``assert`` guarding simulation invariants in
                   library code — stripped under ``python -O``; raise a
                   typed exception from :mod:`repro.errors` instead
VRC005   error     mutable default argument (``def f(x=[])``) — shared
                   across calls, a classic state-leak between runs
VRC006   warning   direct ``print()`` in library hot paths — library
                   output must go through the reporting/monitor layers
                   (or a logger) so sweeps and parsers see structured
                   data, not stray stdout; the CLI, experiment drivers,
                   and reporting modules are exempt
VRC007   warning   ``except Exception:`` / bare ``except:`` in library
                   code that does not re-raise — a handler that broad
                   swallows the :mod:`repro.errors` taxonomy
                   (SimulationError and friends), silently converting
                   failures the sweep/fuzz drivers must see into wrong
                   results; catch specific types or re-raise
VRC008   warning   ``stats.inc("key")`` / ``.set`` / ``.max`` /
                   ``.batch("key", ...)`` with a
                   literal counter key missing from the central
                   registry (:data:`repro.stats.names.COUNTER_NAMES`)
                   — counter keys are stringly typed, so a typo
                   silently splits one counter into two and downstream
                   taxonomy sums stop adding up
VRC009   warning   direct construction of a ``ReplacementPolicy``
                   subclass in library code — policies must be built
                   through the ``from_spec``/``make_policy`` registry
                   (:data:`repro.virec.policies.POLICIES`) so config
                   strings, sweeps, and the Fig 12 study stay the
                   single source of the policy axis
VRC011   error     raw ``sqlite3.connect`` outside :mod:`repro.ledger`
                   — every ledger access must go through the
                   ``Recorder``/``LedgerReader`` API so the WAL mode,
                   busy timeout, schema DDL, and append-only discipline
                   are applied on every handle; a stray connection that
                   skips them can corrupt multiprocess sweeps
=======  ========  =====================================================

Suppression: append ``# lint: ignore[VRC00N]`` (or the conventional
``# noqa: VRC00N``) to the flagged line.  A bare ``# noqa`` suppresses
every rule on that line.  Suppressed findings are counted but do not
affect the exit code.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..stats.names import COUNTER_NAMES

#: severity names, weakest first; ``--fail-on`` compares by this order
SEVERITIES = ("info", "warning", "error")


def severity_rank(name: str) -> int:
    return SEVERITIES.index(name)


@dataclass(frozen=True)
class Severity:
    """Severity constants (kept as plain strings in findings)."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class LintRule:
    id: str
    name: str
    severity: str
    rationale: str


RULES: Tuple[LintRule, ...] = (
    LintRule("VRC001", "unseeded-random", "error",
             "unseeded randomness breaks run-to-run reproducibility; "
             "construct a seeded Random/Generator from the config seed"),
    LintRule("VRC002", "wall-clock-read", "error",
             "wall-clock time on a simulation path leaks host timing into "
             "results; only telemetry/profiling may read it"),
    LintRule("VRC003", "set-iteration-order", "warning",
             "set iteration order is salted per process; wrap in sorted() "
             "when order can reach cycle counts, digests, or output"),
    LintRule("VRC004", "bare-assert", "error",
             "assert statements vanish under python -O; simulation "
             "invariants must raise typed repro.errors exceptions"),
    LintRule("VRC005", "mutable-default-arg", "error",
             "mutable default arguments are shared across calls and leak "
             "state between runs"),
    LintRule("VRC006", "print-in-library", "warning",
             "direct print() in library code bypasses the reporting/"
             "monitor layers and pollutes machine-readable output; route "
             "through repro.stats.reporting or the CLI"),
    LintRule("VRC007", "broad-except-swallow", "warning",
             "an except clause broad enough to catch SimulationError "
             "hides simulator failures from the resilient drivers; catch "
             "specific exception types or re-raise"),
    LintRule("VRC008", "unregistered-counter-key", "warning",
             "a literal Stats counter key must come from "
             "repro.stats.names.COUNTER_NAMES; a typo silently splits "
             "one counter into two"),
    LintRule("VRC009", "ad-hoc-policy-construction", "warning",
             "ReplacementPolicy subclasses must be constructed through "
             "the from_spec/make_policy registry, not instantiated "
             "directly in library code"),
    LintRule("VRC011", "raw-sqlite-connect", "error",
             "sqlite3.connect outside repro.ledger bypasses the "
             "Recorder/LedgerReader API and its WAL/busy-timeout/schema "
             "setup; go through the ledger store"),
)

RULES_BY_ID: Dict[str, LintRule] = {r.id: r for r in RULES}

#: modules allowed to read the wall clock (VRC002): any file whose path
#: contains one of these directory names, or matches one of these stems
#: (``ledger`` records host-side provenance timestamps — like telemetry,
#: its readings never reach simulated state or digests)
_WALLCLOCK_ALLOWED_DIRS = ("telemetry", "ledger", "tests", "benchmarks")
#: ``spans``/``monitor`` time the *host-side fleet* (worker phases, sweep
#: heartbeats) — like the profiler, their readings never reach simulated
#: state or digests
_WALLCLOCK_ALLOWED_STEMS = ("profiler", "conftest", "spans", "monitor")

#: files allowed to print() directly (VRC006): user-facing surfaces
#: (the CLI, experiment drivers, reporting/plot helpers) and non-library
#: trees; everything else must return data or go through reporting
_PRINT_ALLOWED_DIRS = ("experiments", "tests", "benchmarks", "examples",
                       "scripts", "docs")
_PRINT_ALLOWED_STEMS = ("cli", "reporting", "plotting", "monitor")

#: trees exempt from the broad-except rule (VRC007): non-library code may
#: catch-all at its own risk; library code must let the repro.errors
#: taxonomy propagate to the resilient drivers (or suppress explicitly
#: with ``# noqa: VRC007`` where swallowing is the contract)
_BROAD_EXCEPT_ALLOWED_DIRS = ("experiments", "tests", "benchmarks",
                              "examples", "scripts", "docs")

#: trees exempt from the counter-key registry rule (VRC008): tests and
#: ad-hoc scripts may invent scratch counters; library code must register
#: names in :mod:`repro.stats.names` (or suppress with ``# noqa: VRC008``)
_COUNTER_KEY_ALLOWED_DIRS = ("tests", "benchmarks", "examples", "scripts",
                             "docs")

#: trees exempt from the policy-registry rule (VRC009); the registry
#: module itself (``policies.py``) is where the classes legitimately
#: construct each other (``super().__init__`` chains, ``from_spec``)
_POLICY_CTOR_ALLOWED_DIRS = ("tests", "benchmarks", "examples", "scripts",
                             "docs")
_POLICY_CTOR_ALLOWED_STEMS = ("policies",)

#: lazily-resolved class names of every registered ReplacementPolicy
#: (import deferred: repro.virec imports repro.analysis at package level)
_POLICY_CLASS_NAMES: Optional[frozenset] = None


def _policy_class_names() -> frozenset:
    global _POLICY_CLASS_NAMES
    if _POLICY_CLASS_NAMES is None:
        from ..virec.policies import POLICIES
        _POLICY_CLASS_NAMES = (
            frozenset(cls.__name__ for cls in POLICIES.values())
            | {"ReplacementPolicy"})
    return _POLICY_CLASS_NAMES

#: trees allowed to call ``sqlite3.connect`` directly (VRC011): the ledger
#: package owns the one sanctioned connection helper; tests and scripts may
#: open throwaway databases for fixtures and inspection
_SQLITE_ALLOWED_DIRS = ("ledger", "tests", "benchmarks", "examples",
                        "scripts", "docs")

#: Stats methods that name counter keys (VRC008): the mutators' first
#: argument, every argument of ``batch``
_COUNTER_KEY_METHODS = frozenset({"inc", "set", "max", "batch"})

#: exception names broad enough to swallow SimulationError (VRC007)
_BROAD_EXCEPTION_NAMES = frozenset({
    "Exception", "BaseException",
    "builtins.Exception", "builtins.BaseException"})

_WALLCLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns"})
_WALLCLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: global-state draws on the ``random`` module (VRC001)
_RANDOM_GLOBAL_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "getrandbits",
    "randbytes", "betavariate", "expovariate", "seed"})
#: legacy global-state draws on ``numpy.random`` (VRC001)
_NUMPY_GLOBAL_FNS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "seed", "bytes"})

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})

_SUPPRESS_RE = re.compile(
    r"#\s*(?:noqa|lint:\s*ignore)"      # '# noqa' or '# lint: ignore'
    r"(?:\s*[:\[]\s*(?P<codes>[A-Z0-9,\s]+?)\s*\]?)?\s*(?:#|$)")


@dataclass
class Finding:
    rule: LintRule
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    @property
    def severity(self) -> str:
        return self.rule.severity

    def as_dict(self) -> Dict[str, object]:
        return {"rule": self.rule.id, "name": self.rule.name,
                "severity": self.rule.severity, "path": self.path,
                "line": self.line, "col": self.col,
                "message": self.message, "suppressed": self.suppressed}

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule.id} [{self.rule.severity}] {self.message}{tag}")


def _suppressed_codes(line_text: str) -> Optional[frozenset]:
    """Codes suppressed on this line, empty frozenset = suppress all,
    None = no suppression comment."""
    m = _SUPPRESS_RE.search(line_text)
    if m is None:
        return None
    codes = m.group("codes")
    if not codes:
        return frozenset()
    return frozenset(c.strip() for c in codes.split(",") if c.strip())


def _dotted(node: ast.AST) -> Optional[str]:
    """'a.b.c' for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Visitor(ast.NodeVisitor):
    """Single-pass visitor running every enabled rule."""

    def __init__(self, path: str, select: frozenset) -> None:
        self.path = path
        self.select = select
        self.findings: List[Finding] = []
        self._wallclock_exempt = self._is_wallclock_exempt(path)
        self._print_exempt = self._is_print_exempt(path)
        self._broad_except_exempt = self._is_broad_except_exempt(path)
        self._counter_key_exempt = self._is_counter_key_exempt(path)
        self._policy_ctor_exempt = self._is_policy_ctor_exempt(path)
        self._sqlite_exempt = self._is_sqlite_exempt(path)

    @staticmethod
    def _is_wallclock_exempt(path: str) -> bool:
        p = Path(path)
        if any(part in _WALLCLOCK_ALLOWED_DIRS for part in p.parts):
            return True
        return p.stem in _WALLCLOCK_ALLOWED_STEMS

    @staticmethod
    def _is_print_exempt(path: str) -> bool:
        p = Path(path)
        if any(part in _PRINT_ALLOWED_DIRS for part in p.parts):
            return True
        return p.stem in _PRINT_ALLOWED_STEMS

    @staticmethod
    def _is_broad_except_exempt(path: str) -> bool:
        return any(part in _BROAD_EXCEPT_ALLOWED_DIRS
                   for part in Path(path).parts)

    @staticmethod
    def _is_counter_key_exempt(path: str) -> bool:
        return any(part in _COUNTER_KEY_ALLOWED_DIRS
                   for part in Path(path).parts)

    @staticmethod
    def _is_policy_ctor_exempt(path: str) -> bool:
        p = Path(path)
        if any(part in _POLICY_CTOR_ALLOWED_DIRS for part in p.parts):
            return True
        return p.stem in _POLICY_CTOR_ALLOWED_STEMS

    @staticmethod
    def _is_sqlite_exempt(path: str) -> bool:
        return any(part in _SQLITE_ALLOWED_DIRS
                   for part in Path(path).parts)

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        if rule_id not in self.select:
            return
        self.findings.append(Finding(
            RULES_BY_ID[rule_id], self.path,
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0) + 1,
            message))

    # -- VRC001 / VRC002 / VRC006 / VRC008: call-pattern rules --------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is not None:
            self._check_random(node, dotted)
            self._check_wallclock(node, dotted)
            self._check_sqlite(node, dotted)
        self._check_print(node)
        self._check_counter_key(node)
        self._check_policy_ctor(node)
        self.generic_visit(node)

    # -- VRC009: policies constructed outside the from_spec registry ---------
    def _check_policy_ctor(self, node: ast.Call) -> None:
        if self._policy_ctor_exempt:
            return
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        if name in _policy_class_names():
            self._emit("VRC009", node,
                       f"{name}(...) constructed directly; use "
                       f"make_policy/ReplacementPolicy.from_spec so the "
                       f"policy axis stays registry-driven")

    # -- VRC008: counter keys off the central registry -----------------------
    @classmethod
    def _stats_receiver(cls, node: ast.AST) -> bool:
        """Does ``node`` syntactically look like a Stats tree?

        Matches dotted names whose last segment is ``stats``-like
        (``self.stats``, ``core.stats``, ``node_stats``) and ``child(...)``
        chains rooted at one (``self.stats.child("x")``).
        """
        dotted = _dotted(node)
        if dotted is not None:
            leaf = dotted.rpartition(".")[2].lstrip("_")
            return leaf == "stats" or leaf.endswith("_stats")
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "child"):
            return cls._stats_receiver(node.func.value)
        return False

    def _check_counter_key(self, node: ast.Call) -> None:
        if self._counter_key_exempt:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _COUNTER_KEY_METHODS
                and self._stats_receiver(func.value)):
            return
        # every argument of batch() is a key; the mutators take one
        keys = node.args if func.attr == "batch" else node.args[:1]
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                    and key.value not in COUNTER_NAMES:
                self._emit("VRC008", node,
                           f"counter key {key.value!r} is not in "
                           f"repro.stats.names.COUNTER_NAMES; register it "
                           f"there (or suppress a deliberate scratch "
                           f"counter)")

    def _check_print(self, node: ast.Call) -> None:
        if self._print_exempt:
            return
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self._emit("VRC006", node,
                       "direct print() call in library code; return data or "
                       "route through repro.stats.reporting")

    def _check_random(self, node: ast.Call, dotted: str) -> None:
        base, _, attr = dotted.rpartition(".")
        if dotted == "random.Random" and not node.args and not node.keywords:
            self._emit("VRC001", node,
                       "random.Random() without a seed; pass the run seed")
        elif base == "random" and attr in _RANDOM_GLOBAL_FNS:
            self._emit("VRC001", node,
                       f"random.{attr}() uses the unseeded global PRNG; use "
                       f"a Random(seed) instance")
        elif (base in ("np.random", "numpy.random")
              and attr in _NUMPY_GLOBAL_FNS):
            self._emit("VRC001", node,
                       f"{dotted}() uses numpy's global RNG state; use "
                       f"default_rng(seed)")
        elif (attr == "default_rng"
              and (not base or base.endswith("random"))
              and not node.args and not node.keywords):
            self._emit("VRC001", node,
                       "default_rng() without a seed draws OS entropy; pass "
                       "the run seed")

    # -- VRC011: ledger access bypassing the Recorder/LedgerReader API -------
    def _check_sqlite(self, node: ast.Call, dotted: str) -> None:
        if self._sqlite_exempt:
            return
        base, _, attr = dotted.rpartition(".")
        if attr == "connect" and base.split(".")[-1] == "sqlite3":
            self._emit("VRC011", node,
                       "raw sqlite3.connect outside repro.ledger skips the "
                       "WAL/busy-timeout/schema setup; use the ledger "
                       "Recorder/LedgerReader API")

    def _check_wallclock(self, node: ast.Call, dotted: str) -> None:
        if self._wallclock_exempt:
            return
        base, _, attr = dotted.rpartition(".")
        if base == "time" and attr in _WALLCLOCK_TIME_FNS:
            self._emit("VRC002", node,
                       f"time.{attr}() reads the wall clock outside "
                       f"telemetry/profiler code")
        elif (attr in _WALLCLOCK_DATETIME_FNS
              and base.split(".")[-1] == "datetime"):
            self._emit("VRC002", node,
                       f"{dotted}() reads the wall clock outside "
                       f"telemetry/profiler code")

    # -- VRC003: set-ordered iteration --------------------------------------
    def _set_valued(self, node: ast.AST) -> Optional[str]:
        """Describe ``node`` if it syntactically evaluates to a set."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return f"{node.func.id}(...)"
            # list(set(x)) / tuple(set(x)) preserve the salted order
            if node.func.id in ("list", "tuple", "reversed", "iter") \
                    and len(node.args) == 1:
                inner = self._set_valued(node.args[0])
                if inner is not None:
                    return f"{node.func.id}({inner})"
        return None

    def _check_set_iter(self, iter_node: ast.AST, where: ast.AST) -> None:
        desc = self._set_valued(iter_node)
        if desc is not None:
            self._emit("VRC003", where,
                       f"iterating {desc}: set order is salted per process; "
                       f"wrap in sorted(...) if order matters")

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iter(node.iter, node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_set_iter(node.iter, node)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_set_iter(gen.iter, gen.iter)
        self.generic_visit(node)

    visit_ListComp = visit_SetComp = visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- VRC004: bare assert -------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._emit("VRC004", node,
                   "bare assert is stripped under python -O; raise a typed "
                   "exception from repro.errors")
        self.generic_visit(node)

    # -- VRC007: broad except swallowing the failure taxonomy ----------------
    @staticmethod
    def _broad_caught(type_node: ast.AST) -> List[str]:
        """Caught-type names broad enough to hide SimulationError."""
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) \
            else [type_node]
        broad: List[str] = []
        for n in nodes:
            name = _dotted(n)
            if name in _BROAD_EXCEPTION_NAMES:
                broad.append(name.rpartition(".")[2])
        return broad

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if not self._broad_except_exempt:
            # a handler that re-raises (even conditionally) propagates the
            # failure; only fully-swallowing handlers are flagged
            reraises = any(isinstance(sub, ast.Raise)
                           for stmt in node.body for sub in ast.walk(stmt))
            if not reraises:
                if node.type is None:
                    self._emit("VRC007", node,
                               "bare except: swallows every exception, "
                               "including the repro.errors taxonomy; catch "
                               "specific types or re-raise")
                else:
                    for name in self._broad_caught(node.type):
                        self._emit("VRC007", node,
                                   f"except {name}: swallows SimulationError "
                                   f"and hides simulator failures; catch "
                                   f"specific types or re-raise")
        self.generic_visit(node)

    # -- VRC005: mutable default arguments ----------------------------------
    def _check_defaults(self, node) -> None:
        a = node.args
        for default in list(a.defaults) + [d for d in a.kw_defaults if d]:
            bad = None
            if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                    ast.ListComp, ast.DictComp, ast.SetComp)):
                bad = "a mutable literal"
            elif (isinstance(default, ast.Call)
                  and isinstance(default.func, ast.Name)
                  and default.func.id in _MUTABLE_FACTORIES):
                bad = f"{default.func.id}()"
            if bad is not None:
                self._emit("VRC005", default,
                           f"mutable default argument ({bad}) is shared "
                           f"across calls; default to None")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def _enabled_rules(select: Optional[Iterable[str]],
                   ignore: Optional[Iterable[str]]) -> frozenset:
    """The rule ids ``select``/``ignore`` leave on (unknown ids raise)."""
    enabled = frozenset(select) if select else frozenset(RULES_BY_ID)
    if ignore:
        enabled = enabled - frozenset(ignore)
    unknown = enabled - frozenset(RULES_BY_ID)
    if unknown:
        raise ValueError(f"unknown lint rule ids: {sorted(unknown)}")
    return enabled


def lint_source(source: str, path: str = "<string>",
                select: Optional[Iterable[str]] = None,
                ignore: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint one module's source text; returns findings including
    suppressed ones (marked ``suppressed=True``)."""
    enabled = _enabled_rules(select, ignore)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(LintRule("VRC000", "syntax-error", "error",
                                 "file must parse"),
                        path, exc.lineno or 0, (exc.offset or 0),
                        f"syntax error: {exc.msg}")]
    visitor = _Visitor(path, enabled)
    visitor.visit(tree)
    lines = source.splitlines()
    for f in visitor.findings:
        text = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        codes = _suppressed_codes(text)
        if codes is not None and (not codes or f.rule.id in codes):
            f.suppressed = True
    return visitor.findings


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            raise ValueError(f"no such file or directory: {raw}")
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None,
               ignore: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint every ``*.py`` under ``paths`` (files or directories)."""
    _enabled_rules(select, ignore)  # bad ids raise even with no files
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_source(
            file.read_text(encoding="utf-8"), str(file),
            select=select, ignore=ignore))
    return findings


# -- output -----------------------------------------------------------------
def _summary(findings: List[Finding]) -> Dict[str, int]:
    active = [f for f in findings if not f.suppressed]
    out = {"total": len(active),
           "suppressed": sum(1 for f in findings if f.suppressed)}
    for sev in SEVERITIES:
        out[sev] = sum(1 for f in active if f.severity == sev)
    return out


def render_text(findings: List[Finding], show_suppressed: bool = False) -> str:
    shown = [f for f in findings if show_suppressed or not f.suppressed]
    lines = [f.render() for f in shown]
    s = _summary(findings)
    lines.append(f"{s['total']} finding(s): {s['error']} error, "
                 f"{s['warning']} warning, {s['info']} info "
                 f"({s['suppressed']} suppressed)")
    return "\n".join(lines)


def render_json(findings: List[Finding]) -> str:
    return json.dumps({
        "findings": [f.as_dict() for f in findings],
        "summary": _summary(findings),
    }, indent=2)


def exit_code(findings: List[Finding], fail_on: str = "error") -> int:
    """1 if any unsuppressed finding at/above ``fail_on`` severity."""
    if fail_on == "none":
        return 0
    threshold = severity_rank(fail_on)
    for f in findings:
        if not f.suppressed and severity_rank(f.severity) >= threshold:
            return 1
    return 0
