"""Fiber invariants of torus knots and links on the Heegaard torus of a lens space.

The knot T(k,l) sits on the boundary torus of the genus-1 Heegaard splitting
of the lens space with parameters (r, s); it is the curve of slope l/k in the
longitude-meridian basis of the first solid torus.  For lens parameters we
always take 0 <= s < r, gcd(r, s) = 1, and r = 1 means the three-sphere.
Non-trivial such knots fiber, and the formulas below give the Euler
characteristic and boundary count of the fiber and the homological order of
the knot.  Classes with gcd(k, l) > 1 are torus links and are accepted as
long as no component is a trivial knot.
"""

from __future__ import annotations

from math import gcd

from . import _Frozen


class TrivialTorusKnotError(ValueError):
    """The class bounds a disk, so the fiber formulas do not apply."""


class LensTorusKnot(_Frozen):
    """The (k, l)-curve on the Heegaard torus of the (r, s) lens space."""

    __slots__ = ("r", "s", "k", "l")

    def __init__(self, r: int, s: int, k: int, l: int):
        if r < 1:
            raise ValueError(f"lens parameter r must be positive, got {r}")
        if not (0 <= s < r) and not (r == 1 and s == 0):
            raise ValueError(f"lens parameter s must satisfy 0 <= s < r, got {s}")
        if gcd(r, s) != 1:
            raise ValueError(f"lens parameters must be coprime, got ({r}, {s})")
        if (k, l) == (0, 0):
            raise ValueError("(k, l) = (0, 0) is not a curve class")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    @property
    def component_count(self) -> int:
        return gcd(self.k, self.l)


def is_trivial(K: LensTorusKnot) -> bool:
    """True iff the underlying knot bounds a disk in the lens space.

    That happens exactly for the meridians of the two Heegaard solid tori,
    the classes +-(0, 1) and +-(r, s).  For a link class the test is applied
    to the reduced class (k, l)/gcd(k, l), so e.g. (0, n) counts as trivial.
    """
    c = K.component_count
    return (K.k // c, K.l // c) in ((0, 1), (0, -1), (K.r, K.s), (-K.r, -K.s))


def is_rational_unknot(K: LensTorusKnot) -> bool:
    """True iff the knot's exterior is a solid torus (disk pages).

    Holds for the cores of the two Heegaard solid tori: (k, l) = +-(1, n),
    or r*l - s*k = +-1.
    """
    k, l = K.k, K.l
    if abs(k) == 1:
        return True
    return abs(K.r * l - K.s * k) == 1


def _require_fibered(K: LensTorusKnot) -> None:
    if is_trivial(K):
        raise TrivialTorusKnotError(f"the ({K.k}, {K.l})-curve in L({K.r}, {K.s}) bounds a disk; "
                                    "fiber invariants undefined")


def euler_characteristic(K: LensTorusKnot) -> int:
    """Euler characteristic of the fiber surface of a non-trivial class.

    It is (|k| + |t| - |kt|)/gcd(r, k) with t = ks - lr, an exact division:
    gcd(r, k) divides k and r, hence t, hence the numerator."""
    _require_fibered(K)
    k, l, r, s = K.k, K.l, K.r, K.s
    twist = k * s - l * r
    return (abs(k) + abs(twist) - abs(k * twist)) // gcd(r, k)


def boundary_count(K: LensTorusKnot) -> int:
    """Number of boundary components of the fiber surface.

    For a knot this is gcd(r, k^2)/gcd(r, k).  A link with c parallel
    components contributes c times the count of its reduced class (the
    closed-form gcd identity in the knot case needs gcd(k, l) = 1).  The
    division is exact: gcd(r, k) divides r and k^2, hence gcd(r, k^2).
    """
    _require_fibered(K)
    k = K.k // K.component_count
    return K.component_count * (gcd(K.r, k * k) // gcd(K.r, k))


def homological_order(K: LensTorusKnot) -> int:
    """Order of the curve's total class in first homology of the lens space."""
    _require_fibered(K)
    return K.r // gcd(K.r, K.k)


def boundary_wrap(K: LensTorusKnot) -> int:
    """How many times each fiber boundary circle runs along its component."""
    _require_fibered(K)
    k = K.k // K.component_count
    return K.r // gcd(K.r, k * k)
