"""Braid words, band generators, Garside half twists, and chain lifts: the
tests' reference for the closed-form rotation curves of the (2,2)-cable.

Words are written in group order (leftmost letter acts first).  Letters are
either standard generators s_k (a right-handed half twist of strands k and
k+1) or band generators s_{i,j} exchanging strands i and j by a right-handed
twist along an arc running in front of the intervening strands; the band
generator expands to s_i^-1 ... s_{j-2}^-1 s_{j-1} s_{j-2} ... s_i.

Braids on the marked points of a disk lift letterwise through the standard
2-fold branched cover: s_k becomes a right-handed Dehn twist about the k-th
curve of the covering chain.  Lifted words are returned in functional order
(reversed), matching the rest of the package.  A lifted word's class is
read back from its homology delta with :func:`extract_transvection_class`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from cablekit.curves import CurveSystemError, Delta
from cablekit.words import Generator, TwistWord


class BraidError(ValueError):
    pass


@dataclass(frozen=True)
class BraidLetter:
    i: int
    j: int
    sign: int

    def __post_init__(self):
        if not (1 <= self.i < self.j):
            raise BraidError(f"bad strand indices ({self.i}, {self.j})")
        if self.sign not in (1, -1):
            raise BraidError("letter sign must be +-1")

    @property
    def is_standard(self) -> bool:
        return self.j == self.i + 1

    def inverse(self) -> "BraidLetter":
        return BraidLetter(self.i, self.j, -self.sign)

    def __str__(self) -> str:
        base = f"s{self.i}" if self.is_standard else f"s{self.i},{self.j}"
        return base + ("" if self.sign == 1 else "^-1")


@dataclass(frozen=True)
class BraidWord:
    strand_count: int
    letters: tuple[BraidLetter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for let in self.letters:
            if let.j > self.strand_count:
                raise BraidError(f"letter {let} exceeds {self.strand_count} strands")

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[tuple]) -> "BraidWord":
        letters = []
        for item in pairs:
            if len(item) == 2:
                k, sign = item
                letters.append(BraidLetter(k, k + 1, sign))
            else:
                i, j, sign = item
                letters.append(BraidLetter(min(i, j), max(i, j), sign))
        return BraidWord(n, tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strand_count != other.strand_count:
            raise BraidError("strand counts differ")
        return BraidWord(self.strand_count, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.strand_count, tuple(l.inverse() for l in reversed(self.letters))
        )

    def power(self, n: int) -> "BraidWord":
        if n < 0:
            return self.inverse().power(-n)
        return BraidWord(self.strand_count, self.letters * n)

    def is_positive(self) -> bool:
        return all(l.sign == 1 for l in self.letters)

    # -- band expansion and permutations ------------------------------------

    def expand_bands(self) -> "BraidWord":
        """Rewrite every band generator as its standard-letter word."""
        out: list[BraidLetter] = []
        for let in self.letters:
            if let.is_standard:
                out.append(let)
                continue
            i, j = let.i, let.j
            pre = [BraidLetter(k, k + 1, -1) for k in range(i, j - 1)]
            mid = [BraidLetter(j - 1, j, 1)]
            post = [BraidLetter(k, k + 1, 1) for k in range(j - 2, i - 1, -1)]
            body = pre + mid + post
            if let.sign < 0:
                body = [b.inverse() for b in reversed(body)]
            out.extend(body)
        return BraidWord(self.strand_count, tuple(out))

    def permutation(self) -> tuple[int, ...]:
        """Image positions: strand starting at slot k ends at perm[k-1]+1."""
        perm = list(range(self.strand_count))
        for let in self.letters:
            a, b = let.i - 1, let.j - 1
            perm[a], perm[b] = perm[b], perm[a]
        return tuple(perm)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters) if self.letters else "e"


def garside_half_twist(n: int, lo: int = 1, hi: int = 0) -> BraidWord:
    """The positive half twist on strands lo..hi (all strands by default),
    written (s_{hi-1} ... s_lo)(s_{hi-1} ... s_{lo+1}) ... (s_{hi-1})."""
    hi = hi or n
    letters = []
    for start in range(lo, hi):
        letters.extend(BraidLetter(k, k + 1, 1) for k in range(hi - 1, start - 1, -1))
    return BraidWord(n, tuple(letters))


def braid_Bp(d: int, p: int) -> BraidWord:
    """The d*p-strand positive band word for the p-sheeted unwinding of a
    trivial d-strand braid: the product over i = 2..p, j = 1..d of the bands
    s_{(p-i)d+j, (p-i+1)d+j}.  It has d(p-1) letters, all positive."""
    if d < 1 or p < 2:
        raise BraidError("need d >= 1 and p >= 2")
    letters = []
    for i in range(2, p + 1):
        for j in range(1, d + 1):
            letters.append(BraidLetter((p - i) * d + j, (p - i + 1) * d + j, 1))
    return BraidWord(d * p, tuple(letters))


def r22_braid(g: int) -> BraidWord:
    """The (2,2)-cable rotation braid on 4g+2 strands: the half twist on all
    strands times the inverse full twists on the first and last 2g+1."""
    n = 4 * g + 2
    half = garside_half_twist(n)
    d1 = garside_half_twist(n, 1, 2 * g + 1)
    d2 = garside_half_twist(n, 2 * g + 2, n)
    return half * d1.power(-2) * d2.power(-2)


def lift_through_double_cover(braid: BraidWord, chain: Sequence[str]) -> TwistWord:
    """Lift letterwise through the 2-fold cover branched at the strand points.

    chain[k-1] names the curve covering the arc between branch points k and
    k+1, so s_k lifts to a right-handed twist about chain[k-1].  The result
    is in functional order (the braid's first letter acts first, hence sits
    rightmost)."""
    expanded = braid.expand_bands()
    if len(chain) < braid.strand_count - 1:
        raise BraidError("chain too short for this strand count")
    gens = [
        Generator.dehn_twist(chain[let.i - 1], let.sign)
        for let in reversed(expanded.letters)
    ]
    return TwistWord(tuple(gens))


def positive_destabilization_certificate(braid: BraidWord) -> list[int]:
    """Certificate that a positive braid Markov-destabilizes to a trivial braid.

    Greedily finds a strand that appears in exactly one letter; since that
    letter is positive, deleting the strand is a positive Markov
    destabilization (after sliding the band to the braid edge).  Returns the
    strands in removal order (original numbering) or raises.
    """
    if not braid.is_positive():
        raise BraidError("certificate defined for positive words only")
    letters = [(l.i, l.j) for l in braid.letters]
    removal: list[int] = []
    while letters:
        usage: dict[int, int] = {}
        for i, j in letters:
            usage[i] = usage.get(i, 0) + 1
            usage[j] = usage.get(j, 0) + 1
        single = [s for s, n in usage.items() if n == 1]
        if not single:
            raise BraidError("no once-used strand; not an obvious stabilization word")
        s = max(single)
        removal.append(s)
        letters = [(i, j) for (i, j) in letters if s not in (i, j)]
    return removal


def _pairing_row(support: dict[int, int]) -> dict[int, int]:
    """The row rho(u) with rho(u) . x = <x, u>, for the class u = `support`."""
    return {t ^ 1: x if t & 1 else -x for t, x in support.items()}


def extract_transvection_class(delta: Delta) -> tuple[dict[int, int], int]:
    """Recover (primitive class, sign) from the delta of a single twist, the
    class as {coordinate: entry} of its nonzero coordinates.

    The twist about c with sign s has delta s * c (x) rho(c), so every
    nonzero column is a multiple of c; the class is the first nonzero column
    divided by the gcd of its entries.  Raises if the delta is not that of a
    (nontrivial) twist along any class.
    """
    if not delta:
        raise CurveSystemError("identity matrix is not a single twist")
    col = delta[min(delta)]
    g = 0
    for x in col.values():
        g = gcd(g, x)
    support = {r: col[r] // g for r in sorted(col)}
    row = _pairing_row(support)
    for sign in (1, -1):
        if delta == {t: {r: sign * y * x for r, x in support.items()} for t, y in row.items()}:
            return support, sign
    raise CurveSystemError("matrix is not a transvection")
