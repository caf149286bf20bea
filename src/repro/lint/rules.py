"""Project-specific AST rules: determinism, observability, fault routing.

Each rule protects an invariant a prior PR established dynamically:

- ``DET001``/``DET002`` — seed-exactness: the serial/parallel equivalence
  property (PR 1) and the exact bench gate (PR 4) only hold if no code
  path consults process-global RNG state, unseeded OS entropy or the
  wall clock.
- ``DET003``/``DET004`` — bit-identical reports: set iteration order and
  naive float summation are the two classic ways "equal" runs diverge.
- ``OBS001`` — the metrics/trace catalog (PR 3) is strict at runtime;
  this makes an undeclared name a lint error before any test runs.
- ``EXC001`` — exceptions crossing ``TrialPool`` process boundaries
  (PR 1) must survive ``pickle`` round-trips, which means every
  constructor argument has to land in ``Exception.args``.
- ``EXC002``/``EXC003`` — crash safety (PR 7): modules that persist
  durable artifacts must route writes through the atomic helper, and no
  code path may swallow a broad exception silently — a silent handler
  would eat the injected :class:`~repro.exceptions.SimulatedCrashError`
  the chaos matrix relies on.
- ``FLT001`` — sampling/CVB paths must route page/record reads through
  the resilient wrappers (PR 2) so fault injection stays exhaustive.

All rules resolve imported names through :class:`ImportTable`, so
``np.random.seed`` and ``numpy.random.seed`` (or ``from time import
time``) are caught identically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import Finding, LintContext, Rule, register

__all__ = [
    "ImportTable",
    "dotted_name",
    "GlobalRngRule",
    "WallClockRule",
    "SetIterationRule",
    "FloatSumRule",
    "ObsCatalogRule",
    "PicklableExceptionRule",
    "AtomicWriteRule",
    "SilentExceptRule",
    "ResilientReadRule",
    "UnusedSuppressionRule",
]


class ImportTable:
    """Alias → fully-qualified module path map for one parsed file.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from datetime
    import datetime as dt`` maps ``dt`` to ``datetime.datetime``.  Used
    to resolve attribute chains like ``np.random.seed`` to their true
    dotted names before matching against rule deny/allow lists.
    """

    def __init__(self, tree: ast.AST):
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    full = alias.name if alias.asname else local
                    self.aliases[local] = full
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports never hit stdlib/numpy
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, name: str) -> str:
        """Expand the leading segment of *name* through the alias map."""
        head, _, rest = name.partition(".")
        base = self.aliases.get(head, head)
        return f"{base}.{rest}" if rest else base


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_unseeded(call: ast.Call) -> bool:
    """True for a call with no argument, or with only a literal ``None``."""
    args = call.args + [keyword.value for keyword in call.keywords]
    if not args:
        return True
    return (
        len(args) == 1
        and isinstance(args[0], ast.Constant)
        and args[0].value is None
    )


def _resolved_calls(ctx: LintContext) -> Iterator[tuple[ast.Call, str]]:
    """Yield every call in the file with its import-resolved dotted name."""
    table = ImportTable(ctx.tree)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None:
                yield node, table.resolve(name)


@register
class GlobalRngRule(Rule):
    """DET001 — no process-global RNG state and no unseeded generators."""

    id = "DET001"
    severity = "error"
    summary = "global-state or unseeded RNG call (random.* / np.random.*)"
    rationale = (
        "Theorems 4-7 are validated by seed-exact trials; module-level "
        "RNG state is shared across the process, so any call through it "
        "breaks serial/parallel equivalence (PR 1) and the exact bench "
        "gate (PR 4). Use repro._rng.ensure_rng / numpy Generator objects."
        " `default_rng()` and `SeedSequence()` with no seed (or a literal"
        " None) pull fresh OS entropy, so reruns diverge; the one"
        " sanctioned site is the `ensure_rng` None-branch, which callers"
        " opt into explicitly."
    )
    example_fix = (
        "`np.random.seed(0); np.random.random()` -> "
        "`rng = ensure_rng(0); rng.random()`"
    )

    #: numpy.random attributes that construct explicit generators rather
    #: than touching the module-global state.
    _NP_ALLOWED = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    })
    #: numpy.random constructors that draw OS entropy when left unseeded.
    _NP_AMBIENT = frozenset({"default_rng", "SeedSequence"})
    #: stdlib random attributes that construct explicit instances.
    _PY_ALLOWED = frozenset({"Random"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag global RNG state and unseeded generator construction."""
        for node, name in _resolved_calls(ctx):
            if name.startswith("numpy.random."):
                attr = name.removeprefix("numpy.random.")
                if attr in self._NP_AMBIENT and _is_unseeded(node):
                    message = (
                        f"`{name}` seeded from ambient OS entropy; thread "
                        "an explicit seed (repro._rng.ensure_rng(seed))"
                    )
                elif attr.split(".", 1)[0] in self._NP_ALLOWED:
                    continue
                else:
                    message = (
                        f"call to global-state numpy RNG `{name}`; "
                        "construct an explicit Generator "
                        "(repro._rng.ensure_rng)"
                    )
                yield self.finding(
                    ctx, node.lineno, node.col_offset, message
                )
            elif name.startswith("random."):
                attr = name.removeprefix("random.")
                if attr.split(".", 1)[0] in self._PY_ALLOWED:
                    continue
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"call to global-state stdlib RNG `{name}`; use an "
                    "explicit seeded generator (repro._rng.ensure_rng)",
                )


@register
class WallClockRule(Rule):
    """DET002 — no wall-clock or entropy reads in logic paths."""

    id = "DET002"
    severity = "error"
    summary = "wall-clock / entropy call outside the obs-timing allowlist"
    rationale = (
        "Experiment outputs must be a pure function of (seed, params); "
        "time and entropy reads make reruns diverge. Timing belongs to "
        "the observability layer only, where each site carries a "
        "`# repro: noqa[DET002]` justification that it never feeds "
        "logical results."
    )
    example_fix = (
        "`elapsed = time.time() - t0` in a logic path -> delete, or move "
        "the measurement into repro.obs and suppress with justification"
    )

    _DENY = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "os.urandom", "os.getrandom",
        "uuid.uuid1", "uuid.uuid4",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag denylisted time/entropy calls and any ``secrets.*`` use."""
        for node, name in _resolved_calls(ctx):
            if name in self._DENY or name.startswith("secrets."):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"nondeterministic call `{name}`; experiment logic "
                    "must be a pure function of (seed, params)",
                )


#: Consumers that impose/observe order on their iterable argument.
_ORDER_SENSITIVE = frozenset({
    "list", "tuple", "enumerate", "reversed", "iter",
})
#: Consumers that erase iteration order (safe over sets).
_ORDER_SAFE = frozenset({
    "sorted", "len", "min", "max", "any", "all", "sum", "set",
    "frozenset", "math.fsum",
})


@register
class SetIterationRule(Rule):
    """DET003 — no unordered iteration feeding ordered output."""

    id = "DET003"
    severity = "error"
    summary = "iteration over a set/frozenset feeding ordered output"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "randomization; feeding it into a list, loop or join makes "
        "reports and golden files flap. Wrap the set in `sorted(...)` "
        "before anything order-sensitive consumes it."
    )
    example_fix = "`for name in {..}:` -> `for name in sorted({..}):`"

    @staticmethod
    def _is_unordered(node: ast.AST, table: ImportTable) -> bool:
        if isinstance(node, ast.NamedExpr):
            # A walrus target is just a view of its value:
            # `for x in (s := {...})` iterates the set.
            node = node.value
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and table.resolve(name) in (
                "set", "frozenset"
            ):
                return True
        return False

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag set-valued iterables reaching order-sensitive consumers."""
        table = ImportTable(ctx.tree)
        blessed: set[int] = set()
        # First pass: bless set expressions consumed by order-erasing
        # callables (sorted(...), len(...), ...), including through a
        # generator expression argument.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or table.resolve(name) not in _ORDER_SAFE:
                continue
            for arg in node.args:
                blessed.add(id(arg))
                if isinstance(arg, (ast.GeneratorExp, ast.SetComp)):
                    for gen in arg.generators:
                        blessed.add(id(gen.iter))
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_unordered(node.iter, table):
                    yield self.finding(
                        ctx, node.iter.lineno, node.iter.col_offset,
                        "for-loop over a set/frozenset: iteration order "
                        "is not deterministic; use sorted(...)",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    if id(gen.iter) in blessed:
                        continue
                    if self._is_unordered(gen.iter, table):
                        yield self.finding(
                            ctx, gen.iter.lineno, gen.iter.col_offset,
                            "comprehension over a set/frozenset feeds "
                            "ordered output; use sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                consumer = (
                    table.resolve(name) if name is not None else None
                )
                is_join = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if consumer not in _ORDER_SENSITIVE and not is_join:
                    continue
                for arg in node.args:
                    if id(arg) in blessed:
                        continue
                    if self._is_unordered(arg, table):
                        label = "join" if is_join else consumer
                        yield self.finding(
                            ctx, arg.lineno, arg.col_offset,
                            f"set/frozenset passed to order-sensitive "
                            f"`{label}(...)`; use sorted(...)",
                        )


@register
class FloatSumRule(Rule):
    """DET004 — compensated summation in metrics/error paths."""

    id = "DET004"
    severity = "error"
    summary = "bare sum() in a metrics/error accumulation path"
    rationale = (
        "Naive float summation accumulates rounding error that depends "
        "on operand order, so merged-vs-serial metric totals (PR 1/PR 3) "
        "can differ in the last ulp and break exact golden comparisons. "
        "math.fsum is exactly rounded and order-independent. Integer "
        "sums may stay, with a `# repro: noqa[DET004]` justification."
    )
    example_fix = "`sum(durations)` -> `math.fsum(durations)`"
    paths = (
        "src/repro/obs/*.py",
        "src/repro/experiments/parallel.py",
        "src/repro/core/error_metrics.py",
        "src/repro/core/kernels.py",
        "src/repro/distinct/metrics.py",
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag builtin ``sum(...)`` calls in the scoped paths."""
        for node, name in _resolved_calls(ctx):
            if name == "sum":
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    "bare sum() in a metrics/error path; use math.fsum "
                    "for float accumulation (suppress with justification "
                    "if provably integral)",
                )


@register
class ObsCatalogRule(Rule):
    """OBS001 — every metric/span name literal is declared in the catalog."""

    id = "OBS001"
    severity = "error"
    summary = "metric/span name literal not declared in repro.obs.catalog"
    rationale = (
        "The observability layer (PR 3) validates names at runtime and "
        "its docs are generated from the catalog; an undeclared literal "
        "would only explode when that code path executes. This check "
        "makes the catalog contract hold statically, repo-wide."
    )
    example_fix = (
        "`inc(\"repro_new_total\")` -> add a MetricSpec for "
        "`repro_new_total` to repro.obs.catalog first"
    )

    _METRIC_METHODS = frozenset({"inc", "set_gauge", "observe"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Cross-check name literals against the statically-read catalog."""
        if ctx.catalog.empty:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            attr = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                continue
            if attr in self._METRIC_METHODS:
                if first.value not in ctx.catalog.metric_names:
                    yield self.finding(
                        ctx, first.lineno, first.col_offset,
                        f"metric name `{first.value}` is not declared in "
                        "repro.obs.catalog",
                    )
            elif attr == "span":
                if first.value not in ctx.catalog.span_names:
                    yield self.finding(
                        ctx, first.lineno, first.col_offset,
                        f"span name `{first.value}` is not declared in "
                        "repro.obs.catalog SPANS",
                    )


@register
class PicklableExceptionRule(Rule):
    """EXC001 — exception classes must survive pickle round-trips."""

    id = "EXC001"
    severity = "error"
    summary = "exception class whose constructor args do not reach .args"
    rationale = (
        "TrialPool (PR 1) ships worker failures across process "
        "boundaries; pickle reconstructs an exception by calling "
        "`type(exc)(*exc.args)`, so an __init__ that drops a parameter "
        "from `super().__init__(...)` either raises TypeError on load "
        "or silently loses payload (e.g. a partial result)."
    )
    example_fix = (
        "`super().__init__(message)` with a second `result` param -> "
        "`super().__init__(message, result)` (plus __str__ if needed)"
    )

    _BASE_SUFFIXES = ("Error", "Exception")

    @staticmethod
    def _params(init: ast.FunctionDef) -> list[str]:
        args = init.args
        names = [a.arg for a in args.posonlyargs + args.args][1:]  # -self
        names.extend(a.arg for a in args.kwonlyargs)
        return names

    @classmethod
    def _forwarded(cls, init: ast.FunctionDef) -> set[str] | None:
        """Names forwarded positionally to super().__init__, or None."""
        for node in ast.walk(init):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                continue
            names: set[str] = set()
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    names.add(arg.id)
                elif isinstance(arg, ast.Starred) and isinstance(
                    arg.value, ast.Name
                ):
                    names.add(arg.value.id)
            return names
        return None

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag exception subclasses that would not pickle faithfully."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = [
                dotted_name(base) or "" for base in node.bases
            ]
            if not any(
                name.split(".")[-1].endswith(self._BASE_SUFFIXES)
                for name in base_names
            ):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "__reduce__" in methods or "__init__" not in methods:
                continue
            init = methods["__init__"]
            params = self._params(init)
            if not params:
                continue
            forwarded = self._forwarded(init)
            if forwarded is None:
                missing = params
            else:
                missing = [p for p in params if p not in forwarded]
            if missing:
                yield self.finding(
                    ctx, init.lineno, init.col_offset,
                    f"exception `{node.name}` drops constructor "
                    f"argument(s) {missing} from super().__init__; "
                    "pickle reconstructs via type(exc)(*exc.args)",
                )


@register
class AtomicWriteRule(Rule):
    """EXC002 — durable artifacts go through the atomic write helper."""

    id = "EXC002"
    severity = "error"
    summary = "non-atomic write in a module that persists durable artifacts"
    rationale = (
        "A crash between open(path, 'w') and close leaves a truncated "
        "artifact behind the same name as the good version, so recovery "
        "(PR 7) cannot tell damage from data. Modules that persist "
        "durable artifacts must write through repro.durability.atomic, "
        "whose tmp + fsync + rename protocol makes the previous complete "
        "version the worst case. Journal appends (mode 'a'/'ab') are the "
        "one sanctioned in-place protocol and stay exempt."
    )
    example_fix = (
        "`open(path, 'w').write(text)` -> `atomic_write_text(path, text)`"
    )
    paths = (
        "src/repro/cli.py",
        "src/repro/obs/trace.py",
        "src/repro/engine/serialization.py",
        "src/repro/durability/*.py",
    )

    #: ``open`` modes that truncate or create the target in place.
    _WRITE_MODES = frozenset(
        {"w", "wt", "tw", "w+", "+w", "wb", "bw", "wb+", "w+b", "+wb",
         "x", "xt", "xb", "x+", "xb+"}
    )
    _WRITE_METHODS = frozenset({"write_text", "write_bytes"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag write-mode ``open()`` and ``Path.write_*`` calls."""
        table = ImportTable(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._WRITE_METHODS
            ):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f".{func.attr}() writes the artifact in place; use "
                    "repro.durability.atomic_write_text/_bytes",
                )
                continue
            name = dotted_name(func)
            if name is None or table.resolve(name) != "open":
                continue
            mode = self._mode_of(node)
            if mode in self._WRITE_MODES:
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"open(..., {mode!r}) writes a durable artifact in "
                    "place; route it through repro.durability.atomic "
                    "(journal appends use mode 'a'/'ab' and are exempt)",
                )

    @staticmethod
    def _mode_of(node: ast.Call) -> str | None:
        """The literal mode string of an ``open`` call, if present."""
        mode: ast.AST | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        else:
            for keyword in node.keywords:
                if keyword.arg == "mode":
                    mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None


@register
class SilentExceptRule(Rule):
    """EXC003 — no broad except handler may swallow errors silently."""

    id = "EXC003"
    severity = "error"
    summary = "broad except handler that silently swallows the exception"
    rationale = (
        "The chaos harness (PR 7) proves recovery by raising "
        "SimulatedCrashError at injected crash points; a bare `except:` "
        "or `except Exception: pass` eats that signal (and every real "
        "bug) without a trace, turning a crash-safety proof into a "
        "vacuous pass. Broad handlers must do something observable — "
        "re-raise, return a sentinel, or record the failure."
    )
    example_fix = (
        "`except Exception: pass` -> `except OSError: return None` "
        "(catch the specific error, and act on it)"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag broad handlers whose body is only ``pass``/``...``."""
        table = ImportTable(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type, table):
                continue
            if all(self._is_silent(stmt) for stmt in node.body):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    "broad except with an empty body swallows every "
                    "error, including injected crash signals; narrow "
                    "the type or handle the failure observably",
                )

    def _is_broad(self, node: ast.AST | None, table: ImportTable) -> bool:
        if node is None:  # a bare `except:` catches BaseException
            return True
        if isinstance(node, ast.Tuple):
            return any(self._is_broad(el, table) for el in node.elts)
        name = dotted_name(node)
        return name is not None and table.resolve(name) in self._BROAD

    @staticmethod
    def _is_silent(stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.Pass):
            return True
        return (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )


@register
class ResilientReadRule(Rule):
    """FLT001 — sampling/CVB paths use resilient read wrappers."""

    id = "FLT001"
    severity = "error"
    summary = "raw HeapFile read in a sampling/CVB path"
    rationale = (
        "The fault-injection layer (PR 2) proves degraded-but-bounded "
        "builds by routing every page/record read through the retrying "
        "wrappers in repro.storage.faults; a raw read in a sampling or "
        "CVB path silently escapes that coverage. Fast paths taken only "
        "when no fault policy is configured carry a justification."
    )
    example_fix = (
        "`heapfile.read_page(pid)` -> "
        "`read_page_resilient(heapfile, pid, retry=...)`"
    )
    paths = (
        "src/repro/sampling/*.py",
        "src/repro/core/adaptive.py",
    )

    _RAW_READS = frozenset({"read_page", "read_pages", "read_record"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag direct ``.read_page/.read_pages/.read_record`` calls."""
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._RAW_READS
            ):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    f"raw HeapFile.{node.func.attr} call in a "
                    "sampling/CVB path; use the resilient wrappers in "
                    "repro.storage.faults",
                )


@register
class UnusedSuppressionRule(Rule):
    """NOQA001 — emitted by the engine for stale suppressions."""

    id = "NOQA001"
    severity = "error"
    summary = "`# repro: noqa[...]` suppression that matched no finding"
    rationale = (
        "Inline suppressions are scoped exemptions from the determinism "
        "contract; one that no longer matches a finding is a stale "
        "allowlist entry hiding future violations on that line."
    )
    example_fix = "delete the stale `# repro: noqa[RULE]` comment"
    engine_managed = True

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Never called; the engine emits NOQA001 findings itself."""
        return iter(())
