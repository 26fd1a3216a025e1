"""Curve systems on model surfaces and the symplectic homology oracle.

A curve system fixes, for a surface of genus g with labeled boundary, a set
of named simple closed curves together with their classes in H_1 of the
capped-off surface (the nonzero coordinates in a fixed symplectic basis
a_1, b_1, ..., a_g, b_g) and a table of recorded geometric intersection
numbers of the model.  A curve stores its class alone: on the capped
surface it is nonseparating exactly when its class is nonzero, since a dual
curve meets a nonseparating curve once and a separating one bounds a
subsurface (Farb-Margalit 1.3).  The recorded table is curated data about
the geometric model and the only source of intersection answers; a pair it
leaves out reads None.  Only ``record_intersection`` fills it, and only
`library`'s script pages, whose tables `replay` reads, call it; their
``check()`` confirms each entry against the absolute symplectic pairing of
the stored classes, catching figure slips.  The `monodromy` cable pages
record none and pair their model classes in place, once per genus.

Words evaluate to integer symplectic matrices: a right-handed twist about c
acts on column vectors by x -> x + <x, [c]> [c], boundary-parallel and
fractional twists act trivially on the capped surface, and stabilization
markers are bookkeeping with trivial action.  Matrix equality of two words
is a necessary condition for equality in the mapping class group; this
module never claims more than that.

The oracle, :meth:`CurveSystem.word_delta`, keeps M - I by its nonzero
sparse columns; a twist is a rank-one update costing the sizes of the
columns it touches, never the dimension.  ``word_matrix`` is its dense view.
A system's ``expansions`` map a zero-class curve to the names of a chain of
m curves, m even, whose power 2m + 2 is its twist (the chain relation); only
`monodromy.cable_p1_system` fills them, with the nodule chains whose
relation `monodromy._nodule_block` checks once per genus.  A cable page's
``rotation`` is the run of `Generator`s its word starts with and the signed
permutation the run makes, a ``turn`` {t: (u, s)} for P e_t = s e_u (see
:meth:`word_delta`); it is None on every other page.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Optional

from . import _Frozen
from .words import DEHN, FRACTIONAL, TwistWord

Matrix = tuple[tuple[int, ...], ...]
Delta = dict[int, dict[int, int]]  # M - I as {column: {row: entry}}, nonzero only


class CurveSystemError(ValueError):
    pass


class UnresolvedCurveError(CurveSystemError):
    pass


def symplectic_pairing(u: Mapping[int, int], v: Mapping[int, int]) -> int:
    """<u, v> in the basis a_1, b_1, a_2, b_2, ... with <a_i, b_i> = 1, for
    classes given as {coordinate: entry} maps."""
    total = 0
    for t, x in u.items():
        total += x * v.get(t ^ 1, 0) * (-1 if t & 1 else 1)
    return total


def _apply_turn(delta: Delta, turn: Mapping[int, tuple[int, int]]) -> None:
    """Write into `delta` the delta of (I + delta) P, P e_t = s e_u for each
    (t, (u, s)) of `turn` and the identity elsewhere: column t becomes s (e_u
    + a_u) - e_t, a_u the old column u, so only rows u and t can cancel.  Only
    the columns of `turn` are rewritten; the others stay the same objects."""
    new = {}
    for t, (u, s) in turn.items():
        col = {r: s * x for r, x in delta.get(u, {}).items()}
        col[u] = col.get(u, 0) + s
        col[t] = col.get(t, 0) - 1
        new[t] = col if col[u] and col[t] else {r: x for r, x in col.items() if x}
    delta.update(new)
    for t in [t for t, col in new.items() if not col]:
        del delta[t]


# -- curve systems -----------------------------------------------------------


class CurveInfo(_Frozen):
    __slots__ = ("support", "dim")

    def __init__(self, support: dict[int, int], dim: int):  # support: nonzero, ascending
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "dim", dim)

    @property
    def nonseparating(self) -> bool:
        """A nonzero class, on the capped surface (see the module docstring)."""
        return bool(self.support)

    @property
    def homology(self) -> tuple[int, ...]:
        """The class with all of its `dim` coordinates."""
        cls = [0] * self.dim
        for t, x in self.support.items():
            cls[t] = x
        return tuple(cls)


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class CurveSystem:
    """Named curves with homology data on a fixed model surface.

    Each builder returns a system of the caller's own, and only checked
    model data is cached.  A builder that records intersections finishes
    with :meth:`check`, which re-derives each from the stored classes; a
    `monodromy` cable page records none and installs data checked per genus.
    """

    __slots__ = ("genus", "boundary_labels", "curves", "intersections", "expansions",
                 "rotation", "name")

    def __init__(self, genus: int, boundary_labels: tuple[str, ...], name: str = ""):
        self.genus, self.boundary_labels, self.name = genus, boundary_labels, name
        self.curves, self.intersections, self.expansions, self.rotation = {}, {}, {}, None

    # -- construction helpers ---------------------------------------------

    def add_curve(self, name: str, homology: Mapping[int, int]) -> None:
        """Declare a curve with its class, a {coordinate: entry} map."""
        if name in self.curves:
            raise CurveSystemError(f"curve {name!r} already declared")
        n = self.dim
        keys = sorted(homology)
        if keys and not (0 <= keys[0] and keys[-1] < n):
            raise CurveSystemError(f"class for {name!r} has a coordinate outside 0..{n - 1}")
        support = {t: homology[t] for t in keys if homology[t]}
        self.curves[name] = CurveInfo(support, n)

    def add_boundary_curves(self) -> None:
        for label in self.boundary_labels:
            self.add_curve(f"bdry_{label}", {})

    def record_intersection(self, a: str, b: str, value: int) -> None:
        self.intersections[_pair_key(a, b)] = value

    # -- queries -------------------------------------------------------------

    def curve(self, name: str) -> CurveInfo:
        try:
            return self.curves[name]
        except KeyError:
            raise UnresolvedCurveError(f"curve {name!r} not in system {self.name!r}")

    def recorded_intersection(self, a: str, b: str) -> Optional[int]:
        """The recorded intersection of `a` and `b`, or None without an entry."""
        self.curve(a), self.curve(b)
        return self.intersections.get(_pair_key(a, b))

    def check(self) -> None:
        """Gate curated data, reading only nonzero coordinates: every
        recorded intersection must equal the symplectic pairing of the stored
        classes up to sign (curve orientations are not tracked)."""
        for (a, b), value in self.intersections.items():
            got = symplectic_pairing(self.curve(a).support, self.curve(b).support)
            if got != value and got != -value:
                raise CurveSystemError(
                    f"recorded intersection {a},{b} = {value} but classes pair to {got}"
                )

    # -- the oracle ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def word_delta(self, word: TwistWord) -> Delta:
        """M - I for the matrix M of `word` (one transvection per Dehn
        twist) as {column: {row: entry}}, holding only nonzero entries.

        Right-multiplying by the twist about c with sign s adds
        s * (M c) * rho(c) to M, rho(c) . x = <x, c>.  Both are read from
        c's stored class: M c from the columns in its support (a column
        without a delta is e_t), rho(c) as the entry x at t ^ 1 for odd t
        and -x for even t, so only the columns t ^ 1 change.  Where the word
        spells out the page's `rotation` run, compared as gens[i:i + n] ==
        run from a letter about its first curve (each letter by identity,
        then by every field), the run is applied as its turn
        (:func:`_apply_turn`).  Two `monodromy` builders set it from the one
        half twist `_nodule_block` checks once per genus, minus the swap of
        layout 1's nodules: `cable_p1_system` the product of its layouts'
        Garside blocks, each that turn moved into place, and
        `sigma22_cover_system` that turn with every sign negated, plus the
        swap.  Zero classes, fractional twists and markers act trivially.
        The first unknown curve, or fractional letter about no boundary of
        the system, raises; markers name no curve, so they are not resolved.
        """
        delta: Delta = {}
        (run, turn), gens, skip = self.rotation or ((), {}), word.generators, 0
        head, n = run[0].curve if run else None, len(run)
        for i, gen in enumerate(gens):
            if i < skip:
                continue
            if gen.kind == DEHN:
                if gen.curve == head and gens[i:i + n] == run:
                    _apply_turn(delta, turn)
                    skip = i + n
                    continue
                support = self.curve(gen.curve).support
                mc: dict[int, int] = {}  # becomes M c
                for t, x in support.items():
                    mc[t] = mc.get(t, 0) + x
                    col = delta.get(t)
                    if col:
                        for r, y in col.items():
                            mc[r] = mc.get(r, 0) + x * y
                for t, x in support.items():
                    j, y = t ^ 1, (x if t & 1 else -x) * gen.sign
                    col = delta.get(j)
                    if col is None:
                        delta[j] = {r: y * v for r, v in mc.items() if v}
                        continue
                    for r, v in mc.items():
                        if v:
                            v = col.get(r, 0) + y * v
                            if v:
                                col[r] = v
                            else:
                                del col[r]
                    if not col:
                        del delta[j]
            elif gen.kind == FRACTIONAL and gen.curve not in self.boundary_labels:
                raise UnresolvedCurveError(f"boundary {gen.curve!r} not in system {self.name!r}")
        return delta

    def word_matrix(self, word: TwistWord) -> Matrix:
        """The matrix of `word`: the dense, row-major view I + word_delta."""
        n = self.dim
        rows = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            row[i] = 1
        for j, col in self.word_delta(word).items():
            for i, x in col.items():
                rows[i][j] += x
        return tuple(map(tuple, rows))


# -- algebraic length --------------------------------------------------------


class NonExpandableGeneratorError(CurveSystemError):
    pass


def algebraic_length(word: TwistWord, sys: CurveSystem) -> int:
    """Signed count of nonseparating twists, a twist about a curve whose
    expansion is a chain of m positive twists counting as m(2m + 2) of them."""
    total = 0
    for gen in word:
        if gen.kind == DEHN and sys.curve(gen.curve).nonseparating:
            total += gen.sign
        elif gen.kind == DEHN and gen.curve in sys.expansions:
            m = len(sys.expansions[gen.curve])
            total += gen.sign * m * (2 * m + 2)
        else:
            raise NonExpandableGeneratorError(
                f"{gen} is not a nonseparating twist and has no registered factorization"
            )
    return total


# -- standard models ---------------------------------------------------------


def chain_classes(genus: int) -> list[dict[int, int]]:
    """Classes v_1..v_{2g+1} of the chain on a genus-g page, as
    {coordinate: entry} maps, with <v_i, v_{i+1}> = 1 and others 0.

    The pattern v_{2i} = +-b_i, v_{2i+1} = +-(a_i + a_{i+1}) realizes the
    homology of a chain of simple closed curves; signs alternate so that
    consecutive pairings all come out +1.  Twists do not see the sign of a
    class, so any consistent choice serves.  No pairing is made: the one
    caller, `monodromy._nodule_block`, checks every pair exactly.
    """
    out = []
    for idx in range(1, 2 * genus + 2):
        if idx % 2 == 0:
            i = idx // 2  # b_i slot, 1-based
            out.append({2 * i - 1: (-1) ** (i + 1)})
        else:
            i = (idx - 1) // 2  # a_i + a_{i+1}, with a_0 = a_{genus+1} = 0
            out.append({t: (-1) ** i for t in (2 * i - 2, 2 * i) if 0 <= t < 2 * genus})
    return out
