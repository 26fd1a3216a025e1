"""Contact-structure verdicts for cablings of open books.

The decision rules: cabling every component positively (with the same sign
of p throughout) preserves the supported contact structure, or reverses its
coorientation when the p's are negative; a negative cable on a component
with |p| > 1 gives at best a virtually overtwisted structure, and is
overtwisted outright whenever its slope is not one of the finitely many
exceptional slopes of that component (or whenever p and q share a factor).
Rational unknots (bindings of disk pages) are the lone exception: a
negative cable with rq - ps = -1 is again one, binding a tight structure.

Page bookkeeping: cabled pages for integral books assemble |p| copies of
the page with torus-link fiber pieces; the resolution of a rational
component changes the page's Euler characteristic by the closed form
-(r - 1)(l - s), read in the window (derived in :func:`resolve`).  Both
return integral books with one boundary circle per binding component.
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import Optional

from . import _Frozen
from .openbook import (BindingComponent, OpenBookError, RationalOpenBook, normalize_to_window,
                       reframe, window_shift)
from .slopes import Slope, ext_gcd, is_exceptional_slope
from .words import FRACTIONAL, Generator, TwistWord


class CableError(ValueError):
    pass


class VerdictKind(Enum):
    SAME_CONTACT = "SameContact"
    REVERSED_CONTACT = "ReversedContact"
    OVERTWISTED = "Overtwisted"
    VIRTUALLY_OVERTWISTED_OR_OVERTWISTED = "VirtuallyOvertwistedOrOvertwisted"
    EXCEPTIONAL_TIGHT_POSSIBLE = "ExceptionalTightPossible"
    RATIONAL_UNKNOT_CABLE = "RationalUnknotCable"


class CableSign(Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"


class CableCoefficients(_Frozen):
    """One (p, q) pair per binding component, validated against the book."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "pairs", tuple((int(p), int(q)) for p, q in pairs))

    def validate(self, book: RationalOpenBook) -> None:
        if len(self.pairs) != len(book.components):
            raise CableError(
                f"{len(self.pairs)} pairs for {len(book.components)} components"
            )
        signs = {p > 0 for p, _ in self.pairs}
        if any(p == 0 for p, _ in self.pairs):
            raise CableError("meridional cables (p = 0) are excluded")
        if len(signs) > 1:
            raise CableError("all cable p's must share one sign")
        for (p, q), comp in zip(self.pairs, book.components):
            if Slope(q, p) == comp.seifert_slope:
                raise CableError(
                    f"cable slope {q}/{p} equals the Seifert slope "
                    f"{comp.seifert_slope} and destroys the fibration"
                )

    def in_window(self, book: RationalOpenBook) -> tuple[RationalOpenBook, "CableCoefficients"]:
        """The book with every component reframed into its window, and the
        pairs read there: reframing by k shifts a cable coefficient q to
        q + k p.  Verdicts, pages and words are computed in this framing."""
        shifts = [window_shift(c) for c in book.components]
        window = RationalOpenBook(book.genus, tuple(map(reframe, book.components, shifts)),
                                  book.monodromy, book.metadata)
        return window, CableCoefficients(tuple(
            (p, q + k * p) for (p, q), k in zip(self.pairs, shifts)))

    @staticmethod
    def parse(text: str) -> "CableCoefficients":
        """Parse "p,q;p,q;..."."""
        try:
            return CableCoefficients(tuple(chunk.split(",") for chunk in text.split(";")))
        except ValueError:
            raise CableError(
                f"--cable expects p,q (pairs joined by ';') with integer p and q, got {text!r}"
            ) from None


class CableVerdict(_Frozen):
    __slots__ = ("kind", "per_component_signs", "hopf_delta", "lutz_recipe", "note")

    def __init__(self, kind: VerdictKind, per_component_signs: tuple[CableSign, ...],
                 hopf_delta: Optional[int] = None, lutz_recipe: Optional[str] = None,
                 note: str = ""):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "per_component_signs", per_component_signs)
        object.__setattr__(self, "hopf_delta", hopf_delta)
        object.__setattr__(self, "lutz_recipe", lutz_recipe)
        object.__setattr__(self, "note", note)

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "per_component_signs": [s.value for s in self.per_component_signs],
            "hopf_delta": self.hopf_delta,
            "lutz_recipe": self.lutz_recipe,
            "note": self.note,
        }


def cable_sign(cable: Slope, seifert: Slope) -> CableSign:
    """The sign of a cable slope against its component's Seifert slope.  The
    domain is what `CableCoefficients.validate` admits: a finite cable slope
    (p != 0) other than the Seifert slope."""
    return CableSign.POSITIVE if cable > seifert else CableSign.NEGATIVE


def hopf_delta(p: int, q: int, genus: int) -> int:
    """Change of the Hopf invariant under a negative (p, q)-cable of an
    integral connected binding: (1 - |p|)(2*genus + |q| - 1).

    A genus-0 connected integral binding is the unknot; its (p, -sgn p)
    cables are unknots again and fall outside the formula."""
    if genus < 0:
        raise CableError("genus must be nonnegative")
    if abs(p) == 1:
        return 0
    if p * q >= 0:
        raise CableError("positive cables do not shift the Hopf invariant")
    if genus == 0 and q == (-1 if p > 0 else 1):
        raise CableError("the unknot with q = -sgn(p) stays an unknot; no delta")
    return (1 - abs(p)) * (2 * genus + abs(q) - 1)


def classify_cable(book: RationalOpenBook, coeffs: CableCoefficients) -> CableVerdict:
    """The verdict of cabling `book` by `coeffs`, decided in the window
    framing; negative p's mirror to positive ones on the structure -xi.  A
    disk page makes the binding a rational unknot, read from the page alone."""
    coeffs.validate(book)
    book, coeffs = coeffs.in_window(book)
    pairs, side = coeffs.pairs, "xi"
    if pairs and pairs[0][0] < 0:
        pairs, side = tuple((-p, -q) for p, q in pairs), "-xi"

    signs = tuple(
        cable_sign(Slope(q, p), comp.seifert_slope)
        for (p, q), comp in zip(pairs, book.components)
    )
    negatives = [
        i
        for i, ((p, q), sign) in enumerate(zip(pairs, signs))
        if sign is CableSign.NEGATIVE and abs(p) != 1
    ]

    integral_connected = book.is_integral and book.has_connected_binding

    if not negatives:
        delta = 0 if integral_connected else None
        kind = VerdictKind.SAME_CONTACT if side == "xi" else VerdictKind.REVERSED_CONTACT
        return CableVerdict(kind, signs, hopf_delta=delta)

    # rational unknot exception: a negative cable at a Farey neighbor of the
    # Seifert slope gives another rational unknot, hence stays tight.  A disk
    # page has one component, so it is the negative one
    if book.is_rational_unknot_book:
        (p, q), comp = pairs[0], book.components[0]
        if comp.order * q - p * comp.seifert_numerator == -1:
            return CableVerdict(
                VerdictKind.RATIONAL_UNKNOT_CABLE,
                signs,
                note="negative cable of a rational unknot along a Farey "
                "neighbor of the Seifert slope; the cable is again a "
                "rational unknot and the structure stays tight",
            )

    # a non-coprime negative cable is overtwisted, so it is never exceptional
    all_exceptional = all(
        gcd(p, q) == 1 and is_exceptional_slope(Slope(q, p), book.components[i].seifert_slope)
        for i, (p, q) in enumerate(pairs) if i in negatives
    )

    delta = hopf_delta(*pairs[0], book.genus) if integral_connected else None

    if all_exceptional:
        return CableVerdict(
            VerdictKind.EXCEPTIONAL_TIGHT_POSSIBLE,
            signs,
            hopf_delta=delta,
            note="virtually overtwisted or overtwisted; exceptional slope(s), "
            "so a tight structure is possible and is not ruled out here",
        )

    recipe = lutz_cable_description_for(side, pairs, negatives)
    return CableVerdict(
        VerdictKind.OVERTWISTED, signs, hopf_delta=delta, lutz_recipe=recipe
    )


def lutz_cable_description_for(side: str, pairs, negatives: list[int]) -> str:
    return "; ".join(f"Lutz twist on binding component {i} of ({side}), then a Lutz twist "
                     f"on each component of its ({pairs[i][0]},{pairs[i][1]})-Lutz cable"
                     for i in negatives)


# -- cabled pages ------------------------------------------------------------


def cabled_page(book: RationalOpenBook, coeffs: CableCoefficients) -> RationalOpenBook:
    """Page data of the cabled book.

    Integral books cabled with one magnitude |p| across all components stay
    honest: the new page is |p| copies of the old page glued to one
    torus-link fiber piece per component (Euler characteristic |q_i| - |p
    q_i| each, q_i read in the page framing), and each component turns into
    gcd(p, q_i) integral components.  Books with a rational component are
    only supported through :func:`resolve`; general rational cables are out
    of the implemented envelope.
    """
    coeffs.validate(book)
    if not book.is_integral:
        raise CableError(
            "general cables of rational books are not supported; use resolve() "
            "for the (r, l)-resolution shape"
        )
    book, coeffs = coeffs.in_window(book)
    magnitudes = {abs(p) for p, _ in coeffs.pairs}
    if len(magnitudes) != 1:
        raise CableError("honest cabled pages need one |p| across components")
    chi = magnitudes.pop() * book.page_euler_char
    components: list[BindingComponent] = []
    for p, q in coeffs.pairs:
        chi += abs(q) - abs(p * q)
        components += [BindingComponent(1, 0)] * gcd(p, q)
    return _integral_book(chi, components)


def _integral_book(chi: int, components: list[BindingComponent],
                   monodromy: Optional[TwistWord] = None,
                   metadata: tuple[tuple[str, str], ...] = ()) -> RationalOpenBook:
    """The book with page Euler characteristic `chi` and binding
    `components`, all integral, so one boundary circle each.  The genus
    (2 - chi - b)/2 is whole: a page has chi + b = 2 - 2g; a resolution adds
    (r-1)(s-l) + gcd(r, l) - gcd(r, s), even, since for odd r, r-1 is even
    and both gcds are odd, and for even r, r-1 is odd and gcd(r, x) has the
    parity of x; a cabled page of m integral components has chi + b =
    |p|(2 - 2g - m) + sum(|q| - |pq| + gcd(p, q)), each summand of the
    parity of |p|, so the total is |p|(2 - 2g) = 0 mod 2."""
    return RationalOpenBook((2 - chi - len(components)) // 2, tuple(components),
                            monodromy=monodromy, metadata=metadata)


def stabilization_count_pq_from_p1(p: int, q: int) -> int:
    """(|p| - 1)(|q| - 1) stabilizations relate the (p, sgn q)- and (p, q)-
    cables; they are positive when pq > 0 and negative when pq < 0."""
    if p == 0 or q == 0:
        raise CableError("need p != 0 and q != 0")
    return (abs(p) - 1) * (abs(q) - 1)


# -- resolution --------------------------------------------------------------


def resolve(book: RationalOpenBook, l_coeffs: list[int]) -> RationalOpenBook:
    """Replace each component of order r > 1 by its (r, l)-cable, producing
    an integral book supporting the same contact structure.

    l is read in the book's framing, like `--cable`: reframing the
    component by k into its window (-r < s + k r <= 0) reads l as l + k r,
    which must exceed the Seifert numerator there.  Each resolved component
    becomes gcd(r, l) integral components, one boundary circle each.

    Page count, in the window with n = gcd(r, s) and l > s: the page gains
    the fiber of the (r, l)-curve on the Heegaard torus of the lens space
    with parameters (r/n, s/n), glued along the n old boundary circles.  In
    lens position the parameter s/n and the coefficient l move by one r/n
    and one r (none when s = 0); the twist r s' - l' (r/n) is (r/n)(s - l)
    either way, so the shift drops out.  The fiber's Euler characteristic
    (r + (r/n)(l - s) - r (r/n)(l - s)) / (r/n) is n - (r - 1)(l - s), so
    the page's drops by (r - 1)(l - s).

    When every resolved component reads (r, -1) with l = 0 in its window
    and a monodromy word is present, the word is updated: the fractional
    boundary twists are replaced by one positive boundary twist about each
    new boundary component (a boundary multitwist acting first).  A book
    with no rational component keeps its word unchanged.
    """
    rational = [i for i, c in enumerate(book.components) if c.order > 1]
    if len(l_coeffs) != len(rational):
        raise OpenBookError(
            f"need one l per rational component ({len(rational)}), got {len(l_coeffs)}"
        )
    chi = book.page_euler_char
    multitwist_ok = True
    new_curves: list[str] = []
    for idx, l in zip(rational, l_coeffs):
        comp = book.components[idx]
        k = window_shift(comp)
        r, s, l = comp.order, comp.seifert_numerator + k * comp.order, l + k * comp.order
        if l <= s:
            raise OpenBookError(
                f"resolution slope l={l} must exceed the Seifert numerator {s} (in the window)"
            )
        multitwist_ok = multitwist_ok and (s, l) == (-1, 0)
        chi -= (r - 1) * (l - s)
        new_curves += [f"rb{idx}_{j}" for j in range(1, gcd(r, l) + 1)]
    word = book.monodromy
    if word is not None and rational:
        kept = tuple(g for g in word if g.kind != FRACTIONAL)
        added = tuple(Generator.dehn_twist(c, +1) for c in new_curves)
        word = TwistWord(kept + added) if multitwist_ok else None
    components = [c for c in book.components if c.order == 1]
    components += [BindingComponent(1, 0)] * len(new_curves)
    return _integral_book(chi, components, word, book.metadata).with_metadata(
        contact="unchanged by resolution (positive cables)")


# -- surgery -----------------------------------------------------------------


def surgery_admissible(coefficient: Slope, seifert: Slope) -> bool:
    """True iff the (finite) coefficient lies below the Seifert slope."""
    if coefficient.is_meridian:
        return False
    return coefficient < seifert


def induced_open_book_from_surgery(
    book: RationalOpenBook, component_index: int, coefficient: Slope
) -> RationalOpenBook:
    """Replace a binding component by the core of the surgery torus.

    Convention: coefficient a/b kills the curve a*mu + b*lambda.  Writing
    the page curve of the component in the new meridian-longitude basis
    gives the induced component (order |a*r - b*s|, numerator from the
    unimodular change of basis, normalized into the window).  The slope
    equal to the Seifert slope is rejected: it collapses the pages.  With
    this convention the surgered book is honest exactly when |a*r - b*s| is
    1; for an integral component that reads |a| = 1, so surgery coefficient
    phrasing that tracks "p = +-1" refers to our numerator a.
    """
    comps = list(book.components)
    if not (0 <= component_index < len(comps)):
        raise OpenBookError(f"no component {component_index}")
    comp = comps[component_index]
    if coefficient.is_meridian:
        raise OpenBookError("meridional surgery gives back the same book")
    # read a/b in the component's window, as `CableCoefficients.in_window`
    # reads --cable: reframing by k moves s to s + k r and a to a + k b
    k = window_shift(comp)
    r, s = comp.order, comp.seifert_numerator + k * comp.order
    a, b = coefficient.numerator + k * coefficient.denominator, coefficient.denominator
    order_new = a * r - b * s
    if order_new == 0:
        raise OpenBookError(
            "surgery along the Seifert slope destroys the fibration"
        )
    # unimodular completion a*d - b*c = 1; page curve = (ar - bs) lambda' +
    # (ds - cr) mu' in the new basis (lambda', mu' = c*mu + d*lambda, a*mu + b*lambda)
    _, d, c = ext_gcd(a, -b)
    s_new = d * s - c * r
    if order_new < 0:
        order_new, s_new = -order_new, -s_new
    new_comp = normalize_to_window(
        BindingComponent(order=order_new, seifert_numerator=s_new)
    )
    comps[component_index] = new_comp
    word = book.monodromy
    if word is not None and comp.is_integral and b == 1 and a < 0:
        from fractions import Fraction
        # integer -r surgery on an integral component: the page behavior at
        # the new component is a right-handed 1/r fractional twist
        word = word.compose(
            TwistWord.of(
                Generator.fractional_boundary(
                    f"surgery_core_{component_index}", Fraction(1, -a)
                )
            )
        )
    elif word is not None:
        word = None  # no word is shipped for this shape
    out = RationalOpenBook(
        genus=book.genus,
        components=tuple(comps),
        monodromy=word,
        metadata=book.metadata,
    )
    if surgery_admissible(coefficient, comp.seifert_slope):
        out = out.with_metadata(contact="admissible-surgery supported")
    return out

