"""Whole-program flow rules: seed provenance and lock balance.

These rules run over the :class:`ProjectModel` — symbol table plus call
graph (see :mod:`repro.lint.symbols` / :mod:`repro.lint.callgraph`) —
rather than one file at a time, and are therefore opt-in: ``repro lint
--flow`` (or explicit ``--rules`` selection) enables them.

SEED1xx — seed-provenance dataflow
----------------------------------

The serial≡parallel contract (PR 1) requires that every value crossing
a ``TrialPool`` boundary is a picklable **seed** derived through
``spawn_seeds``.  A small taint lattice tracks RNG provenance through
each function: ``SPAWNED`` (a ``spawn_seeds`` result and anything
derived from it by indexing, comprehension or tuple packing),
``GENERATOR`` (``ensure_rng`` / ``default_rng`` / ``spawn_rngs``
results), ``RAWDRAW`` (direct generator draws like ``rng.integers``
not routed through ``spawn_seeds``) and unknown.  Unknown stays silent
— the gate runs at zero findings, so the analysis only speaks when it
can prove provenance.  When the seeds argument is a function
parameter, the call graph supplies the callers and their argument
taint is checked one level up (findings land at the caller).

CON1xx — lock discipline
------------------------

The statistics server answers each connection on its own thread, and
its admission, cache and catalog state is shared behind locks.  A lock
``acquire()`` without a matching ``release()`` in the same function
leaks the lock on error paths (CON103).
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass
from typing import Iterator

from .engine import Finding, LintContext, Rule, register
from .callgraph import (
    CallGraph,
    FunctionUnit,
    _UnitResolver,
    _dotted,
    build_call_graph,
)
from .symbols import ModuleSummary, SymbolTable, build_symbol_table

__all__ = [
    "ProjectModel",
    "get_project",
    "clear_project_cache",
    "AmbientRngRule",
    "NonSpawnedSeedsRule",
    "GeneratorBoundaryRule",
    "LockBalanceRule",
]

# ----------------------------------------------------------------------
# taint lattice
# ----------------------------------------------------------------------

SPAWNED = "spawned"
GENERATOR = "generator"
RAWDRAW = "rawdraw"

#: generator methods whose results are raw draws, not spawned seeds.
_DRAW_METHODS = frozenset({
    "integers", "random", "choice", "normal", "uniform",
    "standard_normal", "permutation", "bytes", "exponential", "poisson",
})

#: taint priority when joining (worst provenance wins).
_JOIN_ORDER = {RAWDRAW: 3, GENERATOR: 2, SPAWNED: 1, None: 0}


@dataclass(frozen=True)
class _ParamTaint:
    """Marker: the value is the enclosing function's parameter *name*."""

    name: str


def _join(*taints):
    best = None
    for taint in taints:
        if isinstance(taint, _ParamTaint):
            continue
        if _JOIN_ORDER.get(taint, 0) > _JOIN_ORDER.get(best, 0):
            best = taint
    return best


class _TaintScope:
    """Per-function RNG provenance environment."""

    def __init__(self, resolver: _UnitResolver):
        self.resolver = resolver
        self.env: dict[str, object] = {}
        node = resolver.unit.node
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            self.env[arg.arg] = _ParamTaint(arg.arg)
        # Two passes so forward references through reassignment settle.
        for _ in range(2):
            self._collect(node)

    def _collect(self, fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                self._bind_targets(node.targets, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind_targets([node.target], node.value)
            elif isinstance(node, ast.NamedExpr):
                self._bind_targets([node.target], node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                taint = self.taint_of(node.iter)
                if taint is not None:
                    self._bind_pattern(node.target, taint)
            elif isinstance(node, ast.Call):
                # list.append(tainted) upgrades the list's taint.
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("append", "extend")
                    and isinstance(func.value, ast.Name)
                    and node.args
                ):
                    taint = self.taint_of(node.args[0])
                    current = self.env.get(func.value.id)
                    joined = _join(current, taint)
                    if joined is not None:
                        self.env[func.value.id] = joined

    def _bind_targets(self, targets, value: ast.AST) -> None:
        taint = self.taint_of(value)
        if taint is None or isinstance(taint, _ParamTaint):
            return
        for target in targets:
            self._bind_pattern(target, taint)

    def _bind_pattern(self, target: ast.AST, taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_pattern(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind_pattern(target.value, taint)

    def taint_of(self, expr: ast.AST):
        """Provenance of *expr*: a taint constant, _ParamTaint or None."""
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Starred):
            return self.taint_of(expr.value)
        if isinstance(expr, ast.Subscript):
            return self.taint_of(expr.value)
        if isinstance(expr, ast.IfExp):
            return _join(self.taint_of(expr.body), self.taint_of(expr.orelse))
        if isinstance(expr, ast.BinOp):
            return _join(self.taint_of(expr.left), self.taint_of(expr.right))
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return _join(*(self.taint_of(e) for e in expr.elts))
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            inner = dict(self.env)
            for gen in expr.generators:
                taint = self.taint_of(gen.iter)
                if taint is not None and not isinstance(taint, _ParamTaint):
                    saved, self.env = self.env, dict(self.env)
                    self._bind_pattern(gen.target, taint)
                    inner = self.env
                    self.env = saved
            saved, self.env = self.env, inner
            try:
                return self.taint_of(expr.elt)
            finally:
                self.env = saved
        if isinstance(expr, ast.Call):
            return self._call_taint(expr)
        return None

    def _call_taint(self, call: ast.Call):
        func = call.func
        # rng.integers(...) on a generator-tainted base is a raw draw.
        if isinstance(func, ast.Attribute) and func.attr in _DRAW_METHODS:
            base = self.taint_of(func.value)
            if base == GENERATOR:
                return RAWDRAW
        if isinstance(func, ast.Name) and func.id in (
            "list", "tuple", "sorted", "reversed"
        ):
            if call.args:
                return self.taint_of(call.args[0])
            return None
        resolved = self.resolver.resolve_call(call)
        if resolved is None:
            return None
        callee, external = resolved
        if external:
            if callee == "numpy.random.default_rng":
                return GENERATOR
            return None
        tail = callee.rsplit(".", 1)[-1]
        if tail == "spawn_seeds":
            return SPAWNED
        if tail in ("spawn_rngs", "ensure_rng"):
            return GENERATOR
        return None


# ----------------------------------------------------------------------
# project model
# ----------------------------------------------------------------------

#: lock-ish name fragments for the CON103 lock heuristic.
_LOCKISH = ("lock", "cond", "mutex", "semaphore")


def _is_lockish(expr: ast.AST) -> bool:
    """Heuristic: does *expr* name a lock/condition object?"""
    if isinstance(expr, ast.Call):
        return _is_lockish(expr.func)
    name = _dotted(expr)
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1].lower()
    return any(frag in tail for frag in _LOCKISH)


@dataclass(frozen=True)
class _RawFinding:
    """One flow finding before it is attached to a LintContext."""

    rule: str
    rel_path: str
    line: int
    col: int
    message: str


@dataclass
class ProjectModel:
    """Symbol table + call graph + the precomputed flow findings."""

    root: pathlib.Path
    table: SymbolTable
    graph: CallGraph
    _findings: dict[str, list[_RawFinding]] | None = None

    @property
    def work_measure(self) -> dict:
        """Deterministic counters the bench scenario tracks.

        Cache state (how many modules re-parsed) deliberately stays out:
        the bench gate compares these values exactly across runs.
        """
        return {
            "modules": len(self.table.modules),
            "call_edges": len(self.graph.edges),
        }

    def findings_for(self, rel_path: str, rule_id: str) -> list[_RawFinding]:
        """Precomputed findings of *rule_id* anchored in *rel_path*."""
        if self._findings is None:
            self._findings = {}
            for raw in _analyze(self):
                self._findings.setdefault(raw.rel_path, []).append(raw)
        return [
            raw
            for raw in self._findings.get(rel_path, [])
            if raw.rule == rule_id
        ]

#: process-wide project cache keyed by resolved root path.
_PROJECT_CACHE: dict[str, tuple[tuple, ProjectModel]] = {}


def clear_project_cache() -> None:
    """Drop cached project models (test isolation hook)."""
    _PROJECT_CACHE.clear()


def get_project(
    root: pathlib.Path,
    sources: dict[str, str] | None = None,
) -> ProjectModel:
    """Build (or reuse) the project model for the tree at *root*.

    Re-validation is cheap: the symbol table is rebuilt from the
    hash-keyed summary cache, and if the resulting (path, hash)
    signature matches the cached model the call graph and findings are
    reused wholesale.
    """
    table = build_symbol_table(root, sources=sources)
    if sources is not None:
        return ProjectModel(root=root, table=table, graph=build_call_graph(table))
    key = str(root.resolve())
    cached = _PROJECT_CACHE.get(key)
    if cached is not None and cached[0] == table.signature():
        return cached[1]
    model = ProjectModel(root=root, table=table, graph=build_call_graph(table))
    _PROJECT_CACHE[key] = (table.signature(), model)
    return model


# ----------------------------------------------------------------------
# the analysis pass
# ----------------------------------------------------------------------


def _analyze(model: ProjectModel) -> list[_RawFinding]:
    """Run every flow analysis over the whole project, in path order."""
    findings: list[_RawFinding] = []
    for module in sorted(
        model.table.modules.values(), key=lambda m: m.rel_path
    ):
        findings.extend(_seed_ambient(module, model))
    for qual in sorted(model.graph.units):
        unit = model.graph.units[qual]
        findings.extend(_seed_map_calls(unit, model))
        findings.extend(_lock_balance(unit, model))
    # run_trials dispatches through two TrialPool.map sites, so the same
    # caller can be classified twice — dedupe before sorting.
    unique = sorted(set(findings),
                    key=lambda r: (r.rel_path, r.line, r.col, r.rule))
    return unique


def _call_is_none_arg(call: ast.Call) -> bool:
    """True for an argless call or one passing a literal ``None``."""
    kw_named = [k for k in call.keywords if k.arg is not None]
    if not call.args and not kw_named:
        return True
    if len(call.args) == 1 and not kw_named:
        arg = call.args[0]
        return isinstance(arg, ast.Constant) and arg.value is None
    if not call.args and len(kw_named) == 1:
        value = kw_named[0].value
        return isinstance(value, ast.Constant) and value.value is None
    return False


def _seed_ambient(
    module: ModuleSummary, model: ProjectModel
) -> Iterator[_RawFinding]:
    """SEED101: RNGs constructed from ambient OS entropy."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name is None:
            continue
        resolved = module.resolve_local(name)
        hit = model.table.resolve_symbol(resolved)
        symbol = hit[1] if hit is not None else None
        ambient = False
        what = resolved
        if resolved in (
            "numpy.random.default_rng", "numpy.random.SeedSequence"
        ) and _call_is_none_arg(node):
            ambient = True
        elif symbol == "ensure_rng" and _call_is_none_arg(node):
            ambient = True
            what = "ensure_rng"
        if ambient:
            yield _RawFinding(
                "SEED101", module.rel_path, node.lineno, node.col_offset,
                f"`{what}` seeded from ambient OS entropy; experiments "
                "must thread an explicit seed (spawn_seeds / ensure_rng "
                "with a seed argument)",
            )


def _map_seeds_arg(call: ast.Call, callee: str) -> ast.AST | None:
    """The seeds/iterable argument of a TrialPool.map / run_trials call."""
    for keyword in call.keywords:
        if keyword.arg == "seeds":
            return keyword.value
    if len(call.args) >= 2:
        return call.args[1]
    return None


def _is_trial_map(callee: str) -> bool:
    return callee.endswith(".TrialPool.map") or callee.endswith(".run_trials")


def _seed_map_calls(
    unit: FunctionUnit, model: ProjectModel
) -> Iterator[_RawFinding]:
    """SEED102/SEED103: provenance of values crossing trial boundaries."""
    scope: _TaintScope | None = None
    for edge in model.graph.calls_from(unit.qualname):
        if edge.external or not _is_trial_map(edge.callee):
            continue
        if edge.callee == unit.qualname:
            continue  # run_trials' own pool.map dispatch, checked at callers
        arg = _map_seeds_arg(edge.node, edge.callee)
        if arg is None:
            continue
        if scope is None:
            scope = _TaintScope(
                _UnitResolver(model.graph, unit)
            )
        taint = scope.taint_of(arg)
        if isinstance(taint, _ParamTaint):
            yield from _check_callers(unit, taint.name, model)
            continue
        yield from _classify_taint(
            taint, unit.module.rel_path, edge.node, edge.callee
        )


def _classify_taint(
    taint, rel_path: str, call: ast.Call, callee: str
) -> Iterator[_RawFinding]:
    short = callee.rsplit(".", 2)[-2:]
    label = ".".join(short)
    if taint == GENERATOR:
        yield _RawFinding(
            "SEED103", rel_path, call.lineno, call.col_offset,
            f"numpy Generator objects cross the `{label}` trial "
            "boundary; pass spawn_seeds ints and rebuild the generator "
            "per worker to keep serial and parallel runs bit-identical",
        )
    elif taint == RAWDRAW:
        yield _RawFinding(
            "SEED102", rel_path, call.lineno, call.col_offset,
            f"seed values reach `{label}` via raw generator draws "
            "instead of spawn_seeds; raw draws are not the documented "
            "child-seed derivation and break serial/parallel equivalence",
        )


def _check_callers(
    unit: FunctionUnit, param: str, model: ProjectModel
) -> Iterator[_RawFinding]:
    """Depth-1 interprocedural step: taint of *param* at each call site."""
    try:
        index = unit.params.index(param)
    except ValueError:
        return
    if unit.owner is not None:
        index -= 1  # caller's positional args exclude `self`
    for caller_edge in model.graph.callers_of(unit.qualname):
        caller = model.graph.units.get(caller_edge.caller)
        if caller is None:
            continue
        call = caller_edge.node
        arg: ast.AST | None = None
        for keyword in call.keywords:
            if keyword.arg == param:
                arg = keyword.value
        if arg is None and 0 <= index < len(call.args):
            arg = call.args[index]
        if arg is None:
            continue
        scope = _TaintScope(_UnitResolver(model.graph, caller))
        taint = scope.taint_of(arg)
        if isinstance(taint, _ParamTaint):
            continue  # deeper chains stay silent (zero-false-positive)
        yield from _classify_taint(
            taint, caller.module.rel_path, call, unit.qualname
        )


def _lock_balance(
    unit: FunctionUnit, model: ProjectModel
) -> Iterator[_RawFinding]:
    """CON103: ``.acquire()`` calls without count-matched ``.release()``."""
    counts: dict[str, list[int]] = {}
    first_line: dict[str, tuple[int, int]] = {}
    for node in ast.walk(unit.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in ("acquire", "release"):
            continue
        base = _dotted(func.value)
        if base is None or not _is_lockish(func.value):
            continue
        slot = counts.setdefault(base, [0, 0])
        slot[0 if func.attr == "acquire" else 1] += 1
        if func.attr == "acquire" and base not in first_line:
            first_line[base] = (node.lineno, node.col_offset)
    for base in sorted(counts):
        acquired, released = counts[base]
        if acquired > released:
            line, col = first_line[base]
            yield _RawFinding(
                "CON103", unit.module.rel_path, line, col,
                f"`{base}.acquire()` ({acquired}x) outnumbers "
                f"`.release()` ({released}x) in `{unit.qualname}`; an "
                "exception between them leaks the lock — use "
                f"`with {base}:` instead",
            )


# ----------------------------------------------------------------------
# rule classes
# ----------------------------------------------------------------------


class _FlowRule(Rule):
    """Base for rules that read the precomputed project analysis."""

    requires_flow = True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Yield this rule's precomputed findings for the file."""
        project = ctx.project
        if project is None:
            return
        for raw in project.findings_for(ctx.rel_path, self.id):
            yield self.finding(ctx, raw.line, raw.col, raw.message)


@register
class AmbientRngRule(_FlowRule):
    """SEED101 — no RNG construction from ambient state."""

    id = "SEED101"
    severity = "error"
    summary = "RNG constructed from ambient OS entropy (no explicit seed)"
    rationale = (
        "Every generator in an experiment path must descend from an "
        "explicit seed, or reruns cannot reproduce the paper's numbers. "
        "`default_rng()`, `SeedSequence()` and `ensure_rng(None)` pull "
        "fresh OS entropy; the one sanctioned site is the `ensure_rng` "
        "None-branch itself, which callers opt into explicitly."
    )
    example_fix = (
        "`rng = np.random.default_rng()` -> "
        "`rng = ensure_rng(seed)` with a threaded seed parameter"
    )


@register
class NonSpawnedSeedsRule(_FlowRule):
    """SEED102 — seeds reaching a parallel map must come from spawn_seeds."""

    id = "SEED102"
    severity = "error"
    summary = "non-spawned seed values reach a TrialPool/parallel map"
    rationale = (
        "The serial/parallel equivalence proof (PR 1) hinges on "
        "spawn_seeds being the single child-seed derivation: workers "
        "rebuild `default_rng(seed)` and match the serial stream "
        "bit-for-bit. Raw generator draws used as seeds are a second, "
        "undocumented derivation that silently forks the contract."
    )
    example_fix = (
        "`pool.map(fn, [rng.integers(2**63) for _ in range(n)])` -> "
        "`pool.map(fn, spawn_seeds(rng, n))`"
    )


@register
class GeneratorBoundaryRule(_FlowRule):
    """SEED103 — Generator objects must not cross trial boundaries."""

    id = "SEED103"
    severity = "error"
    summary = "numpy Generator objects cross a TrialPool trial boundary"
    rationale = (
        "A Generator shipped to workers is consumed in chunk order, not "
        "trial order, so parallel runs diverge from serial ones the "
        "moment two trials share its stream (PR 1's contract). Only "
        "spawn_seeds ints may cross the boundary; each worker rebuilds "
        "its own generator."
    )
    example_fix = (
        "`run_trials(fn, spawn_rngs(rng, n))` -> "
        "`run_trials(fn, spawn_seeds(rng, n))`"
    )


@register
class LockBalanceRule(_FlowRule):
    """CON103 — lock acquire/release must be count-balanced."""

    id = "CON103"
    severity = "error"
    summary = "lock .acquire() without a count-matched .release()"
    rationale = (
        "An exception between acquire() and release() leaves the lock "
        "held forever, deadlocking every other request thread — the "
        "admission controller and cache locks serialize the whole "
        "server. Context-manager form releases on every exit path."
    )
    example_fix = (
        "`self._lock.acquire(); ...; self._lock.release()` -> "
        "`with self._lock: ...`"
    )
