"""Curve systems on model surfaces and the symplectic homology oracle.

A curve system fixes, for a surface of genus g with labeled boundary, a set
of named simple closed curves together with their classes in H_1 of the
capped-off surface (coordinates in a fixed symplectic basis a_1, b_1, ...,
a_g, b_g) and a table of recorded algebraic intersection numbers.  The
recorded table is curated data about the geometric model; a consistency
check confirms every recorded entry against the symplectic pairing of the
stored classes, which catches transcription slips in figure-derived data.

Words evaluate to integer symplectic matrices: a right-handed twist about c
acts on column vectors by x -> x + <x, [c]> [c], boundary-parallel and
fractional twists act trivially on the capped surface, and stabilization
markers are bookkeeping with trivial action.  Matrix equality of two words
is a necessary condition for equality in the mapping class group; this
module never claims more than that.

The oracle never multiplies dense matrices: it keeps the product by columns,
and a twist about c is a rank-one update that reads the columns in the
support of c and writes those in the support of its pairing row (at most two
each for chain curves, O(n) per column for n = 2 * genus).  The dense
letter-by-letter product survives only as the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .words import BRAID_HALF, DEHN, FRACTIONAL, STAB, Generator, TwistWord

Matrix = tuple[tuple[int, ...], ...]


class CurveSystemError(ValueError):
    pass


class UnresolvedCurveError(CurveSystemError):
    pass


# -- exact little linear algebra --------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def symplectic_pairing(u: Sequence[int], v: Sequence[int]) -> int:
    """<u, v> in the basis a_1, b_1, a_2, b_2, ... with <a_i, b_i> = 1."""
    total = 0
    for i in range(0, len(u), 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


def pairing_row(u: Sequence[int]) -> list[int]:
    """Row vector so that row . x = symplectic_pairing(x, u)."""
    row = [0] * len(u)
    for i in range(0, len(u), 2):
        row[i] = u[i + 1]
        row[i + 1] = -u[i]
    return row


def transvection(cls: Sequence[int], sign: int, dim: int) -> Matrix:
    """Matrix of the (signed) twist x -> x + sign*<x, c>*c."""
    row = pairing_row(cls)
    return tuple(
        tuple((1 if i == j else 0) + sign * cls[i] * row[j] for j in range(dim))
        for i in range(dim)
    )


def symplectic_inverse(m: Matrix) -> Matrix:
    """Inverse of a symplectic matrix (every word matrix is one) by the
    closed form -J m^T J, where J is the matrix of the pairing."""
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j) * m[j ^ 1][i ^ 1] for j in range(n)) for i in range(n)
    )


def extract_transvection_class(m: Matrix) -> tuple[tuple[int, ...], int]:
    """Recover (primitive class, sign) from the matrix of a single twist.

    Raises if the matrix is not a (nontrivial) transvection along any class.
    """
    from math import gcd as _gcd

    n = len(m)
    cols = [tuple(m[i][j] - (1 if i == j else 0) for i in range(n)) for j in range(n)]
    nonzero = [c for c in cols if any(c)]
    if not nonzero:
        raise CurveSystemError("identity matrix is not a single twist")
    v = nonzero[0]
    g = 0
    for x in v:
        g = _gcd(g, abs(x))
    v = tuple(x // g for x in v)
    for sign in (1, -1):
        if m == transvection(v, sign, n):
            return v, sign
    raise CurveSystemError("matrix is not a transvection")


def solve_integer_system(rows: list[Sequence[int]], rhs: Sequence[int]) -> tuple[int, ...]:
    """Solve A x = rhs exactly; raises if the solution is not unique/integral."""
    n = len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    col = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(len(pivots), len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[len(pivots)], a[piv] = a[piv], a[len(pivots)]
        prow = a[len(pivots)]
        prow[:] = [x / prow[col] for x in prow]
        for i in range(len(a)):
            if i != len(pivots) and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], prow)]
        pivots.append(col)
    if len(pivots) < n:
        raise CurveSystemError("pairing constraints do not determine the class")
    for i in range(len(pivots), len(a)):
        if a[i][n] != 0:
            raise CurveSystemError("inconsistent pairing constraints")
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = a[i][n]
    if any(s.denominator != 1 for s in sol):
        raise CurveSystemError(f"non-integral class solution {sol}")
    return tuple(int(s) for s in sol)


# -- curve systems -----------------------------------------------------------


@dataclass(frozen=True)
class CurveInfo:
    homology: tuple[int, ...]
    nonseparating: bool
    boundary_parallel: Optional[str] = None


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class CurveSystem:
    """Named curves with homology data on a fixed model surface.

    Immutable by convention once built; the builders below finish with
    :meth:`check`, which re-derives every recorded intersection from the
    stored classes.
    """

    genus: int
    boundary_labels: tuple[str, ...]
    curves: dict[str, CurveInfo] = field(default_factory=dict)
    intersections: dict[tuple[str, str], int] = field(default_factory=dict)
    expansions: dict[str, TwistWord] = field(default_factory=dict)
    name: str = ""

    # -- construction helpers ---------------------------------------------

    def add_curve(
        self,
        name: str,
        homology: Sequence[int],
        nonseparating: bool = True,
        boundary_parallel: Optional[str] = None,
    ) -> None:
        if name in self.curves:
            raise CurveSystemError(f"curve {name!r} already declared")
        if len(homology) != 2 * self.genus:
            raise CurveSystemError(
                f"class for {name!r} has length {len(homology)}, need {2 * self.genus}"
            )
        self.curves[name] = CurveInfo(tuple(homology), nonseparating, boundary_parallel)

    def add_boundary_curves(self) -> None:
        for label in self.boundary_labels:
            self.add_curve(
                f"bdry_{label}",
                (0,) * (2 * self.genus),
                nonseparating=False,
                boundary_parallel=label,
            )

    def record_intersection(self, a: str, b: str, value: int) -> None:
        self.intersections[_pair_key(a, b)] = value

    def register_expansion(self, name: str, word: TwistWord) -> None:
        """Register a nonseparating-twist factorization of the positive twist
        about `name`, verified on homology."""
        for g in word:
            if g.kind != DEHN or not self.curve(g.curve).nonseparating:
                raise CurveSystemError(
                    f"expansion of {name!r} must use nonseparating twists"
                )
        lhs = self.word_matrix(TwistWord.of(Generator.dehn_twist(name, 1)))
        if self.word_matrix(word) != lhs:
            raise CurveSystemError(f"expansion of {name!r} fails the homology oracle")
        self.expansions[name] = word

    # -- queries -------------------------------------------------------------

    def curve(self, name: str) -> CurveInfo:
        try:
            return self.curves[name]
        except KeyError:
            raise UnresolvedCurveError(f"curve {name!r} not in system {self.name!r}")

    def pairing(self, a: str, b: str) -> int:
        return symplectic_pairing(self.curve(a).homology, self.curve(b).homology)

    def recorded_intersection(self, a: str, b: str) -> Optional[int]:
        self.curve(a), self.curve(b)
        return self.intersections.get(_pair_key(a, b))

    def check(self) -> None:
        """Gate curated data: every recorded intersection must equal the
        symplectic pairing of the stored classes up to sign (curve
        orientations are not tracked), and boundary-parallel curves must
        have zero class."""
        for (a, b), value in self.intersections.items():
            got = self.pairing(a, b)
            if got != value and got != -value:
                raise CurveSystemError(
                    f"recorded intersection {a},{b} = {value} but classes pair to {got}"
                )
        for name, info in self.curves.items():
            if info.boundary_parallel is not None and any(info.homology):
                raise CurveSystemError(f"boundary-parallel {name!r} has nonzero class")
            if not info.nonseparating and any(info.homology):
                raise CurveSystemError(f"separating curve {name!r} has nonzero class")

    # -- the oracle ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return 2 * self.genus

    def word_matrix(self, word: TwistWord) -> Matrix:
        """The matrix of `word`, a product of one transvection per Dehn twist.

        The product is kept by columns.  Right-multiplying by the twist about
        c with sign s adds s * (M c) * pairing_row(c) to M: M c combines the
        columns in the support of c and only the columns in the support of
        pairing_row(c) change, so a chain twist reads at most two columns
        and writes at most two, O(n) each with n = 2 * genus.  Zero classes,
        fractional twists and stabilization markers act trivially.
        """
        n = self.dim
        cols = [[int(i == j) for i in range(n)] for j in range(n)]
        plans: dict[str, tuple[list, list]] = {}  # curve -> (support of c, of pairing row)
        for gen in word:
            if gen.kind == DEHN:
                if gen.curve not in plans:
                    cls = self.curve(gen.curve).homology
                    plans[gen.curve] = ([(t, x) for t, x in enumerate(cls) if x],
                                        [(t, x) for t, x in enumerate(pairing_row(cls)) if x])
                support, update = plans[gen.curve]
                if not support:
                    continue
                (t, x), *rest = support
                mc = cols[t]  # M c = x * mc throughout
                for t, y in rest:
                    mc = [x * a + y * b for a, b in zip(mc, cols[t])]
                    x = 1
                for t, y in update:
                    y *= gen.sign * x
                    cols[t] = [a + y * b for a, b in zip(cols[t], mc)]
            elif gen.kind == BRAID_HALF:
                raise UnresolvedCurveError(
                    "braid half twists act on a punctured disk; lift them before evaluating"
                )
            elif gen.kind not in (FRACTIONAL, STAB):
                raise UnresolvedCurveError(f"cannot evaluate generator {gen}")
        return tuple(zip(*cols))


def words_equal_on_homology(w1: TwistWord, w2: TwistWord, sys: CurveSystem) -> bool:
    return sys.word_matrix(w1) == sys.word_matrix(w2)


# -- algebraic length and the mod-10 class ----------------------------------


class NonExpandableGeneratorError(CurveSystemError):
    pass


def _expand_to_nonseparating(word: TwistWord, sys: CurveSystem) -> TwistWord:
    out: list[Generator] = []
    for gen in word:
        if gen.kind == DEHN and sys.curve(gen.curve).nonseparating:
            out.append(gen)
            continue
        if gen.kind == DEHN and gen.curve in sys.expansions:
            expansion = sys.expansions[gen.curve]
            if gen.sign < 0:
                expansion = expansion.inverse()
            out.extend(_expand_to_nonseparating(expansion, sys))
            continue
        raise NonExpandableGeneratorError(
            f"{gen} is not a nonseparating twist and has no registered factorization"
        )
    return TwistWord(tuple(out))


def algebraic_length(word: TwistWord, sys: CurveSystem) -> int:
    """Signed count of nonseparating twists after expanding registered
    factorizations of separating and boundary twists."""
    expanded = _expand_to_nonseparating(word, sys)
    return sum(g.sign for g in expanded)


def mod10_class(word: TwistWord, sys: CurveSystem) -> int:
    """Image of the word in the order-10 abelianization; genus 2, one boundary.

    Twists about nonseparating curves are all conjugate, so their signed
    count is well defined modulo 10 there.  Other surface types would need a
    different abelianization, so they are rejected rather than guessed at.
    """
    if sys.genus != 2 or len(sys.boundary_labels) != 1:
        raise CurveSystemError(
            "the mod-10 length is defined for genus-2 pages with one boundary"
        )
    return algebraic_length(word, sys) % 10


# -- standard models ---------------------------------------------------------


def chain_classes(count: int, genus: int) -> list[tuple[int, ...]]:
    """Classes v_1..v_count with <v_i, v_{i+1}> = 1 and others 0.

    The pattern v_{2i} = +-b_i, v_{2i+1} = +-(a_i + a_{i+1}) realizes the
    homology of a chain of simple closed curves; signs alternate so that
    consecutive pairings all come out +1.  Twists do not see the sign of a
    class, so any consistent choice serves.
    """
    dim = 2 * genus
    out = []
    for idx in range(1, count + 1):
        v = [0] * dim
        if idx % 2 == 0:
            i = idx // 2  # b_i slot, 1-based
            v[2 * i - 1] = (-1) ** (i + 1)
        else:
            i = (idx - 1) // 2  # a_i + a_{i+1}, with a_0 = a_{genus+1} = 0
            sign = (-1) ** i
            if 1 <= i <= genus:
                v[2 * i - 2] = sign
            if 1 <= i + 1 <= genus:
                v[2 * i] = sign
        out.append(tuple(v))
    # verify the chain pattern
    for i, u in enumerate(out):
        for j in range(i + 1, len(out)):
            want = 1 if j == i + 1 else 0
            got = symplectic_pairing(u, out[j])
            if abs(got) != want:
                raise CurveSystemError(f"chain solver failed at ({i+1},{j+1}): {got}")
    return out


def chain_model(genus: int, extra_boundaries: int = 1) -> CurveSystem:
    """The standard chain c_1..c_{2g+1} on a genus-g surface with boundary.

    For genus 0 there are no chain curves, only boundary-parallel ones.
    Boundary labels are "1", "2", ....
    """
    if genus < 0 or extra_boundaries < 1:
        raise CurveSystemError("need genus >= 0 and at least one boundary")
    labels = tuple(str(i + 1) for i in range(extra_boundaries))
    sys = CurveSystem(genus=genus, boundary_labels=labels, name=f"chain_g{genus}")
    if genus > 0:
        classes = chain_classes(2 * genus + 1, genus)
        names = [f"c{i}" for i in range(1, 2 * genus + 2)]
        for name, cls in zip(names, classes):
            sys.add_curve(name, cls)
        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                sys.record_intersection(a, names[j], 1 if j == i + 1 else 0)
    sys.add_boundary_curves()
    for label in labels:
        for i in range(1, 2 * genus + 2):
            if genus > 0:
                sys.record_intersection(f"bdry_{label}", f"c{i}", 0)
    sys.check()
    return sys
