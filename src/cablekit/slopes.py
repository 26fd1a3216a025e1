"""Exact rational slope arithmetic on a framed torus.

A slope q/p records the homology class p*[longitude] + q*[meridian] of an
essential curve on the boundary torus of a knot neighborhood.  The meridian
is the slope 1/0, written "inf"; the framing curve is 0/1.  All arithmetic
is exact (plain Python integers), and values are immutable.

The module also computes negative continued fraction expansions

    s = 1 / (r_0 - 1/(r_1 - 1/(... - 1/r_k)))        with every r_i <= -2

for s in (-1, 0), shortest paths in the Farey tessellation that stay inside
the closed interval spanned by their endpoints, and the exceptional cabling
slopes of a Seifert slope, which are the vertices of its interval path to -1.
Interval paths are what the solid-torus layering calculus uses: an
unconstrained graph geodesic between two slopes can be strictly shorter than
every path through the interval (already for -1 and -7/10, via -2/3), so the
two notions are deliberately kept distinct here and only the interval
version is implemented.
"""

from __future__ import annotations

from math import gcd

from . import _Frozen


class SlopeDomainError(ValueError):
    """Raised when a slope lies outside an operation's domain."""


class Slope(_Frozen):
    """A reduced fraction numerator/denominator; 1/0 is the meridian."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        q, p = numerator, denominator
        if q == 0 and p == 0:
            raise SlopeDomainError("0/0 is not a slope")
        g = gcd(abs(q), abs(p))
        q, p = q // g, p // g
        if p < 0 or (p == 0 and q < 0):
            q, p = -q, -p
        object.__setattr__(self, "numerator", q)
        object.__setattr__(self, "denominator", p)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    # -- basic queries ----------------------------------------------------

    @property
    def is_meridian(self) -> bool:
        return self.denominator == 0

    def vector(self) -> tuple[int, int]:
        """The primitive class (numerator, denominator)."""
        return (self.numerator, self.denominator)

    # -- order on finite slopes --------------------------------------------

    def _finite(self) -> "Slope":
        if self.is_meridian:
            raise SlopeDomainError("the meridian is not ordered against finite slopes")
        return self

    def __lt__(self, other: "Slope") -> bool:
        qa, pa = self._finite().vector()
        qb, pb = other._finite().vector()
        return qa * pb < qb * pa

    def __le__(self, other: "Slope") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Slope") -> bool:
        return other < self

    def __ge__(self, other: "Slope") -> bool:
        return self == other or other < self

    # -- conversions -------------------------------------------------------

    def __str__(self) -> str:
        if self.is_meridian:
            return "inf"
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self) -> str:
        return f"Slope({self})"

    @staticmethod
    def parse(text: str) -> "Slope":
        """Parse "q/p", a bare integer, or "inf"."""
        text = text.strip()
        if text in ("inf", "Inf", "INF", "1/0", "-1/0"):
            return Slope(1, 0)
        if "/" in text:
            q, p = text.split("/", 1)
            return Slope(int(q), int(p))
        return Slope(int(text))


MERIDIAN = Slope(1, 0)


def _det(u: tuple[int, int], w: tuple[int, int]) -> int:
    return u[0] * w[1] - w[0] * u[1]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _hull_runs(u: tuple[int, int], w: tuple[int, int]):
    """Unimodular chain from u to w along the hull of their lattice cone, in
    straight runs (v, e, n) of the members v, v + e, ..., v + (n-1)e, then w.

    u, w are primitive (numerator, denominator) vectors with denominator > 0
    and slope(u) < slope(w).  The chain is the lattice points on the boundary
    of the convex hull of the nonzero lattice points in cone(u, w), from u to
    w.  Consecutive members pair to determinant -1, slopes increase strictly,
    and the chain realizes the shortest Farey path from slope(u) to slope(w)
    through the closed slope interval.  The walk cannot leave the cone:
    det(v, e) = det(v, z) = -1 by the Bezout identity of `ext_gcd`, so
    v + n e stays primitive, and dnext = dzw + t d with t = ceil(dzw / |d|)
    gives d < dnext <= 0, so each run raises d = det(v, w) strictly, up to 0
    at v = w.
    """
    v = u
    while v != w:
        d = _det(v, w)  # stays negative while v != w
        # Solve det(v, z) = -1, then slide z by multiples of v to the hull
        # member: the candidate closest to the w-edge of the cone from the
        # inside, i.e. with det(candidate, w) <= 0 maximal.
        _, x, y = ext_gcd(v[0], v[1])  # v_q*x + v_p*y = 1
        z = (y, -x)  # det(v, z) = -(v_q*x + v_p*y) = -1
        dzw = _det(z, w)
        t = -((-dzw) // (-d))  # ceil(dzw / |d|)
        e = (z[0] + (t - 1) * v[0], z[1] + (t - 1) * v[1])  # the step to the next member
        dnext = d + _det(e, w)
        # the walk keeps the step e while det(v + j*e, w) = d + j*(dnext - d) <= 0
        n = -d // (dnext - d)
        yield v, e, n
        v = (v[0] + n * e[0], v[1] + n * e[1])


def farey_shortest_path(start: Slope, end: Slope) -> list[Slope]:
    """Shortest Farey path between two finite slopes through their interval.

    Every vertex of the returned path lies in the closed interval
    [min(start, end), max(start, end)]; consecutive vertices are Farey
    neighbors, interior vertices are strictly monotone, and no path through
    the interval is shorter.  Reversing the arguments reverses the path.
    """
    if start.is_meridian or end.is_meridian:
        raise SlopeDomainError("interval paths are defined for finite slopes")
    if start == end:
        return [start]
    if start < end:
        lo, hi, flip = start, end, False
    else:
        lo, hi, flip = end, start, True
    path = [Slope(v[0] + j * e[0], v[1] + j * e[1])
            for v, e, n in _hull_runs(lo.vector(), hi.vector()) for j in range(n)] + [hi]
    return path[::-1] if flip else path


class NegContinuedFraction(_Frozen):
    """An expansion [r_0, ..., r_k] of the nest 1/(r_0 - 1/(r_1 - ...)).

    :func:`neg_cont_frac` returns the canonical form, every term <= -2, of
    a slope in (-1, 0); the terms evaluate back to that slope.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(int(t) for t in terms)
        if not terms:
            raise SlopeDomainError("empty continued fraction")
        object.__setattr__(self, "terms", terms)

    def __hash__(self):
        return hash(self.terms)


def neg_cont_frac(s: Slope) -> NegContinuedFraction:
    """Canonical expansion (all terms <= -2) of a slope in (-1, 0).  It
    evaluates back to s: each step writes the running value num/den as
    1/(r - x), x = (den - r num)/(-num) the value of the rest of the nest,
    and x in (-1, 0] keeps r - x from vanishing while |num| falls to 0."""
    if s.is_meridian or not (Slope(-1) < s < Slope(0)):
        raise SlopeDomainError(f"{s} is not in (-1, 0)")
    terms = []
    num, den = s.vector()  # running value num/den, always in (-1, 0)
    while num:
        r = den // num  # floor of 1/value; lands in (1/value - 1, 1/value]
        terms.append(r)
        # residue r - 1/value lies in (-1, 0]; it is the next nest value
        num, den = den - r * num, -num
    return NegContinuedFraction(terms)


def exceptional_slopes(seifert: Slope) -> list[Slope]:
    """Exceptional cabling slopes for a framing-normalized Seifert slope.

    The Seifert slope must be 0 (an integral component in its page framing)
    or lie in (-1, 0).  The exceptional slopes e_1, ..., e_n = -1 are the
    vertices after the first of the interval Farey path from the Seifert
    slope to -1; for 0 that is -1 alone.
    """
    _require_seifert(seifert)
    return farey_shortest_path(seifert, Slope(-1))[1:]


def is_exceptional_slope(slope: Slope, seifert: Slope) -> bool:
    """``slope in exceptional_slopes(seifert)``, read one straight run of the
    path at a time: the cost follows the runs, not the length of the path."""
    _require_seifert(seifert)
    q, p = slope.vector()
    for (vq, vp), (eq, ep), n in _hull_runs((-1, 1), seifert.vector()):
        if (q - vq) * ep == (p - vp) * eq:  # on the line of the run; e is primitive
            j = (p - vp) // ep if ep else (q - vq) // eq
            if 0 <= j < n:
                return True
    return False


def _require_seifert(seifert: Slope) -> None:
    if seifert.is_meridian or not (Slope(-1) < seifert <= Slope(0)):
        raise SlopeDomainError(f"Seifert slope {seifert} must be 0 or in (-1, 0)")


# -- brute-force oracle ----------------------------------------------------


def mediant_farey_graph(bound: int) -> dict[Slope, set[Slope]]:
    """Farey tessellation edges among slopes with |num| <= bound, den <= bound.

    Built by Stern-Brocot mediant subdivision of each integer fan,
    independently of the production path algorithm.  An edge is kept when
    both endpoints survive the bounds.
    """
    adj: dict[Slope, set[Slope]] = {}

    def in_bounds(v: tuple[int, int]) -> bool:
        return abs(v[0]) <= bound and v[1] <= bound

    def add_edge(u: tuple[int, int], w: tuple[int, int]):
        if in_bounds(u) and in_bounds(w):
            a, b = Slope(*u), Slope(*w)
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)

    def subdivide(u: tuple[int, int], w: tuple[int, int]):
        m = (u[0] + w[0], u[1] + w[1])
        if m[1] > bound:
            return
        add_edge(u, m)
        add_edge(m, w)
        subdivide(u, m)
        subdivide(m, w)

    for n in range(-bound, bound):
        u, w = (n, 1), (n + 1, 1)
        add_edge(u, w)
        subdivide(u, w)
    return adj


def bfs_interval_path_length(
    graph: dict[Slope, set[Slope]], start: Slope, end: Slope
) -> int:
    """Edge count of a shortest path inside [start, end], by breadth-first
    search over (numerator, denominator) pairs, bounded by cross-products."""
    if start == end:
        return 0
    lo, hi = (start, end) if start < end else (end, start)
    (lq, lp), (hq, hp), goal = lo.vector(), hi.vector(), end.vector()
    frontier, seen, length = [start], {start.vector()}, 0
    while frontier:
        nxt, length = [], length + 1
        for v in frontier:
            for w in graph.get(v, ()):
                q, p = key = w.numerator, w.denominator
                if key in seen:
                    continue
                if not p:
                    w._finite()  # the meridian is not ordered: raises
                if q * lp < lq * p or hq * p < q * hp:
                    continue
                if key == goal:
                    return length
                seen.add(key)
                nxt.append(w)
        frontier = nxt
    raise SlopeDomainError(f"no interval path from {start} to {end} in bounded graph")
