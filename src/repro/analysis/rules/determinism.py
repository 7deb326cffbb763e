"""DSO1xx — determinism rules.

Two builds of the same index must save bitwise-identical snapshots,
and a query must map to the same cache key in every process (DESIGN.md
§12).  Both hold only while everything that feeds serialized bytes or
keys iterates in a reproducible order.  Python sets iterate in hash order, which varies with
``PYTHONHASHSEED`` and insertion history, so any set iteration whose
order can *escape* into a sequence, a report, or a file is a latent
nondeterminism bug.  Unseeded module-level RNG calls and wall-clock
reads in library code break replayability the same way.
"""

from __future__ import annotations

import ast

from repro.analysis.inference import is_set_expr
from repro.analysis.rules import Rule

#: Builtins whose result forgets iteration order, so feeding them an
#: unordered iterable is safe. ``sorted`` is the canonical fix itself.
_ORDER_FREE_SINKS = frozenset(
    {"sum", "min", "max", "any", "all", "len", "sorted"}
)

#: Calls that materialize their argument's iteration order.
_ORDER_CAPTURING_CALLS = frozenset({"list", "tuple"})


def _is_sorted_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


class SetIterationOrderRule(Rule):
    """DSO101: a comprehension (or ``list()``/``tuple()``/``join()``
    call) iterates a set without an enclosing ``sorted()``.

    Any comprehension is flagged, including set-to-set rebuilds where
    order is provably irrelevant — proving that is exactly what the
    justified ``# dsolint: disable=DSO101 -- ...`` comment records, so
    the next reader does not have to re-derive it.  Generator
    expressions feeding an order-free aggregate (``sum``, ``min``,
    ``max``, ``any``, ``all``, ``len``) are exempt.
    """

    rule_id = "DSO101"
    severity = "error"
    summary = (
        "set iterated into an order-sensitive expression without sorted()"
    )

    def _flag(self, node: ast.AST, iterable: ast.expr) -> None:
        self.report(
            node,
            "iteration order of a set escapes into a value; wrap the "
            "iterable in sorted(...) or suppress with a justification",
        )

    def _check_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
    ) -> None:
        if isinstance(node, ast.GeneratorExp):
            parent = self.context.parent(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_FREE_SINKS
            ):
                return
        env = self.context.env_at(node)
        for generator in node.generators:
            if _is_sorted_call(generator.iter):
                continue
            if is_set_expr(generator.iter, env):
                self._flag(node, generator.iter)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        env = self.context.env_at(node)
        capturing = (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_CAPTURING_CALLS
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        )
        if capturing and node.args:
            argument = node.args[0]
            if not isinstance(argument, ast.GeneratorExp) and is_set_expr(
                argument, env
            ):
                self._flag(node, argument)
        self.generic_visit(node)


class SetLoopEmissionRule(Rule):
    """DSO102: a ``for`` statement iterates a set and its body emits
    ordered output (``.append``/``.extend``/``.insert``/``yield``).

    Plain accumulation loops over sets (dict updates, relaxations,
    counters) are order-insensitive and stay legal; the moment the loop
    body pushes onto a sequence or yields, hash order leaks into data
    that may reach a report, a snapshot, or a shard file.
    """

    rule_id = "DSO102"
    severity = "error"
    summary = "for-loop over a set appends/yields ordered output unsorted"

    _EMITTING_METHODS = frozenset({"append", "extend", "insert", "appendleft"})

    def _body_emits_order(self, statements: list[ast.stmt]) -> ast.AST | None:
        for statement in statements:
            for node in ast.walk(statement):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return node
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._EMITTING_METHODS
                ):
                    return node
        return None

    def visit_For(self, node: ast.For) -> None:
        env = self.context.env_at(node)
        if not _is_sorted_call(node.iter) and is_set_expr(node.iter, env):
            emitter = self._body_emits_order(node.body)
            if emitter is not None:
                self.report(
                    node.iter,
                    "loop over a set feeds ordered output (line "
                    f"{getattr(emitter, 'lineno', '?')}); iterate "
                    "sorted(...) instead",
                )
        self.generic_visit(node)


class UnseededRandomRule(Rule):
    """DSO103: module-level ``random.*`` draws from the shared,
    unseeded global RNG.

    Library code must thread an explicit ``random.Random(seed)``
    instance so builds and experiments replay exactly; a stray
    ``random.shuffle`` silently breaks snapshot parity between two runs
    of the same command.  ``random.Random(seed)`` construction is the
    sanctioned pattern and is not flagged; ``random.Random()`` without
    a seed is.
    """

    rule_id = "DSO103"
    severity = "error"
    summary = "unseeded global random.* call in library code"

    _GLOBAL_DRAWS = frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "betavariate", "expovariate",
        "normalvariate", "getrandbits", "triangular", "seed",
    })

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            if func.value.id == "random":
                if func.attr in self._GLOBAL_DRAWS:
                    self.report(
                        node,
                        f"random.{func.attr}() uses the process-global "
                        "RNG; draw from an explicit random.Random(seed)",
                    )
                elif func.attr == "Random" and not (
                    node.args or node.keywords
                ):
                    self.report(
                        node,
                        "random.Random() without a seed is "
                        "nondeterministic; pass an explicit seed",
                    )
            elif func.value.id in {"np", "numpy"} and func.attr == "random":
                # numpy.random.<draw> handled via the attribute chain
                # below (value is the np.random attribute itself).
                pass
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in {"np", "numpy"}
            and func.value.attr == "random"
            and func.attr not in {"default_rng", "RandomState", "Generator"}
        ):
            self.report(
                node,
                f"numpy.random.{func.attr}() uses the global generator; "
                "use numpy.random.default_rng(seed)",
            )
        self.generic_visit(node)


class WallClockRule(Rule):
    """DSO104: ``time.time()`` in library code.

    Durations must come from ``time.perf_counter()`` (monotonic,
    highest resolution); wall-clock timestamps make replayed builds and
    byte-compared profiles differ for no semantic reason.  Report
    scripts (experiments/benchmarks profile) may read the wall clock —
    the rule is off there by config, not by suppression.
    """

    rule_id = "DSO104"
    severity = "error"
    summary = "time.time() in library code (use perf_counter)"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            self.report(
                node,
                "time.time() is wall-clock; use time.perf_counter() for "
                "durations (or justify a timestamp field)",
            )
        self.generic_visit(node)
