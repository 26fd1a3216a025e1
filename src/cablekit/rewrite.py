"""Relation registry and oracle-checked word rewriting.

Relations are registered against a curve system and gated by the homology
oracle: both sides must induce the same symplectic matrix.  Scripts replay a
sequence of steps against a concrete word; every step's precondition is
checked when it fires (exact subword match for relations, adjacency plus an
inverse pair for cancellation, a recorded zero intersection for commutation),
and the replay verifies at the end that the symplectic matrix of the word
never changed.  Passing a replay certifies "equal on homology and related by
a verified elementary-move script" -- nothing stronger is claimed.
"""

from __future__ import annotations

from typing import Optional

from . import _Frozen
from .curves import CurveSystem
from .words import Generator, TwistWord


class RelationOracleError(ValueError):
    """A candidate relation failed the homology gate."""


class RewriteError(ValueError):
    """A replay step's precondition failed."""


class Relation(_Frozen):
    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs: TwistWord, rhs: TwistWord):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class RelationRegistry:
    """Named relations over one curve system, each gated on registration."""

    def __init__(self, system: CurveSystem):
        self.system = system
        self.relations: dict[str, Relation] = {}

    def register(self, name: str, lhs: TwistWord, rhs: TwistWord) -> Relation:
        if name in self.relations:
            raise RelationOracleError(f"relation {name!r} already registered")
        if self.system.word_delta(lhs) != self.system.word_delta(rhs):
            raise RelationOracleError(f"relation {name!r} fails the homology oracle")
        rel = Relation(name, lhs, rhs)
        self.relations[name] = rel
        return rel

    def get(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise RewriteError(f"relation {name!r} is not registered")


class Step(_Frozen):
    """One replay step.

    kind "apply": replace relation lhs by rhs at `position`.  kind "cancel":
    remove the inverse pair at `position`, `position`+1.  kind "commute":
    swap the two generators at `position`, `position`+1 when their curves
    have recorded intersection 0.  kind "insert": insert the pair
    T_curve^sign, T_curve^-sign at `position` (free: the word value is
    unchanged).
    """

    __slots__ = ("kind", "position", "relation", "curve", "sign")

    def __init__(self, kind: str, position: int, relation: str = "", curve: str = "",
                 sign: int = 1):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "sign", sign)


class RewriteScript(_Frozen):
    __slots__ = ("name", "steps")

    def __init__(self, name: str, steps: tuple[Step, ...]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "steps", steps)


class ReplayResult:
    __slots__ = ("word", "log", "verified")

    def __init__(self, word: TwistWord, log: list[str], verified: bool):
        self.word, self.log, self.verified = word, log, verified


def _apply_step(word: TwistWord, step: Step, registry: RelationRegistry) -> TwistWord:
    gens = list(word.generators)
    i = step.position
    if not 0 <= i <= len(gens):
        raise RewriteError(f"position {i} is outside the word of length {len(gens)}")
    if step.kind == "apply":
        rel = registry.get(step.relation)
        n = len(rel.lhs)
        if tuple(gens[i : i + n]) != rel.lhs.generators:
            raise RewriteError(
                f"relation {rel.name!r} does not match at {i}: "
                f"word has {[str(g) for g in gens[i:i+n]]}"
            )
        return TwistWord(tuple(gens[:i]) + rel.rhs.generators + tuple(gens[i + n :]))
    if step.kind == "cancel":
        if i + 1 >= len(gens) or gens[i].inverse() != gens[i + 1]:
            raise RewriteError(f"no inverse pair at {i}")
        return TwistWord(tuple(gens[:i] + gens[i + 2 :]))
    if step.kind == "commute":
        if i + 1 >= len(gens):
            raise RewriteError(f"no adjacent pair at {i}")
        a, b = gens[i], gens[i + 1]
        recorded = registry.system.recorded_intersection(a.curve, b.curve)
        if recorded != 0:
            raise RewriteError(
                f"cannot commute {a} and {b}: recorded intersection is {recorded}"
            )
        gens[i], gens[i + 1] = b, a
        return TwistWord(tuple(gens))
    if step.kind == "insert":
        g = Generator.dehn_twist(step.curve, step.sign)
        registry.system.curve(step.curve)
        return TwistWord(tuple(gens[:i]) + (g, g.inverse()) + tuple(gens[i:]))
    raise RewriteError(f"unknown step kind {step.kind!r}")


def replay(
    script: RewriteScript,
    word: TwistWord,
    registry: RelationRegistry,
    expect: Optional[TwistWord] = None,
) -> ReplayResult:
    """Run every step with its precondition checked, then verify the oracle.

    The final word must induce the same symplectic matrix as the input (free
    steps and gated relations cannot change it; this re-checks the whole
    pipeline).  When `expect` is given the final word must equal it exactly.
    """
    sys_ = registry.system
    start = sys_.word_delta(word)
    log: list[str] = []
    current = word
    for n, step in enumerate(script.steps):
        current = _apply_step(current, step, registry)
        log.append(f"{n:3d} {step.kind:7s} @{step.position:<3d} "
                   f"{step.relation or step.curve or ''} -> length {len(current)}")
    if sys_.word_delta(current) != start:
        raise RewriteError(f"replay of {script.name!r} changed the homology matrix")
    if expect is not None and current.generators != expect.generators:
        raise RewriteError(
            f"replay of {script.name!r} produced {current}, expected {expect}"
        )
    return ReplayResult(current, log, True)
