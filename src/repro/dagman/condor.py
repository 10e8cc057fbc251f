"""ClassAd-style matchmaking.

HTCondor pairs jobs with machines by evaluating each side's
``Requirements`` expression against the other side's attributes, then
ranking acceptable machines. We implement the same protocol with a
restricted Python-expression evaluator: expressions see the *target*
ad's attributes as plain names and the advertising side's own attributes
under ``my_``-prefixed names.

The OSG platform model uses this for the paper's central heterogeneity
story: machines advertise ``has_python`` / ``has_biopython`` /
``has_cap3``, and blast2cap3 jobs either require them (Sandhills
variant) or carry their own setup step and require nothing (OSG
variant, Fig. 3's red rectangles).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import CodeType
from typing import Any, Mapping, Sequence

__all__ = ["ClassAd", "compile_expression", "evaluate_requirements", "match"]

_ALLOWED_NODES = (
    ast.Expression,
    ast.BoolOp,
    ast.And,
    ast.Or,
    ast.UnaryOp,
    ast.Not,
    ast.USub,
    ast.Compare,
    ast.Eq,
    ast.NotEq,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.In,
    ast.NotIn,
    ast.Name,
    ast.Load,
    ast.Constant,
    ast.BinOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
)


@dataclass(frozen=True)
class ClassAd:
    """An advertisement: attributes plus optional requirements/rank."""

    name: str
    attributes: Mapping[str, Any] = field(default_factory=dict)
    requirements: str | None = None
    rank: str | None = None

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    @cached_property
    def match_key(self) -> tuple | None:
        """Everything of this ad a requirements verdict can depend on:
        two ads with equal keys match exactly the same machines. Built
        once per ad; ``None`` when an attribute value is unhashable."""
        try:
            return (self.requirements, frozenset(self.attributes.items()))
        except TypeError:
            return None


class _Missing:
    """UNDEFINED: falsy and incomparable-but-quiet."""

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return False

    def __lt__(self, other: object) -> bool:
        return False

    __gt__ = __le__ = __ge__ = __lt__


_MISSING = _Missing()


@lru_cache(maxsize=4096)
def compile_expression(expr: str) -> tuple[CodeType, frozenset[str]]:
    """The checked code object of ``expr`` and the names it references.

    Memoized per expression string (a workflow has a handful); a
    malformed or disallowed expression raises — ``SyntaxError`` /
    ``ValueError`` — on every call, since failures are never cached.
    """
    tree = ast.parse(expr, mode="eval")
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"disallowed syntax in ClassAd expression {expr!r}: "
                f"{type(node).__name__}"
            )
        if isinstance(node, ast.Name):
            names.add(node.id)
    return compile(tree, "<classad>", "eval"), frozenset(names)


def _namespace(target: ClassAd, my: ClassAd | None) -> dict[str, Any]:
    namespace: dict[str, Any] = dict(target.attributes)
    if my is not None:
        namespace.update({f"my_{k}": v for k, v in my.attributes.items()})
    return namespace


def evaluate_requirements(
    expr: str | None, target: ClassAd, my: ClassAd | None = None
) -> bool:
    """Evaluate a requirements expression against a target ad.

    Unknown attribute names evaluate to ``False``-y ``None`` → the
    expression fails closed (Condor's UNDEFINED behaves similarly for
    requirements).
    """
    if expr is None:
        return True
    code, names = compile_expression(expr)
    namespace = _namespace(target, my)
    namespace.setdefault("true", True)
    namespace.setdefault("false", False)
    for name in names:
        namespace.setdefault(name, _MISSING)
    try:
        return bool(eval(code, {"__builtins__": {}}, namespace))
    except TypeError:
        return False


def evaluate_rank(expr: str | None, target: ClassAd, my: ClassAd | None = None) -> float:
    """Evaluate a rank expression; undefined/invalid ranks score 0."""
    if expr is None:
        return 0.0
    code, names = compile_expression(expr)
    namespace = _namespace(target, my)
    for name in names:
        namespace.setdefault(name, 0)
    try:
        return float(eval(code, {"__builtins__": {}}, namespace))
    except (TypeError, ValueError):
        return 0.0


def match(
    job: ClassAd, machines: Sequence[ClassAd]
) -> ClassAd | None:
    """Find the best machine for a job.

    A machine is acceptable when the job's requirements hold against the
    machine **and** the machine's requirements hold against the job
    (two-sided matching, as in Condor). Among acceptable machines the
    job's rank expression decides; ties keep the earliest machine.
    """
    best: tuple[float, int] | None = None
    best_machine: ClassAd | None = None
    for idx, machine in enumerate(machines):
        if not evaluate_requirements(job.requirements, machine, my=job):
            continue
        if not evaluate_requirements(machine.requirements, job, my=machine):
            continue
        score = evaluate_rank(job.rank, machine, my=job)
        key = (score, -idx)
        if best is None or key > best:
            best = key
            best_machine = machine
    return best_machine
