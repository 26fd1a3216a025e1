"""Explicit Dehn-twist words for cable monodromies.

A (p, q)-cable page decomposes into p nodules (copies of the original page)
joined by base components; the cable monodromy is the rotation permuting
the nodules composed with the lift of the original monodromy acting on
nodule 1.  This module builds those words:

* connected binding, (p, 1): the rotation is a product of negative nodule
  boundary twists and Garside blocks of positive chain twists on the
  two-nodule sublayouts; the negative generators are exactly the boundary
  twists.
* connected binding, (2, 2): a positive word of 2g+1 twists about the
  rotation curves, whose classes are signed sums of covering-chain classes.
* disconnected binding, (p, 1): a positive word of d(p-1) twists lifted
  from the band word of the unwound trivial braid.
* (p, q): the (p, sgn q) word plus (|p|-1)(|q|-1) stabilization markers.
* the negative-cable normal form for (r, -1)-books, the length obstruction
  for the lens spaces L(p, p-1), and the Stein-cobordism word gluing two
  monodromies into one.  The boundary-multitwist resolution word is
  `classify.resolve`'s.

:func:`monodromy_pq` reads (p, q) in the book's own framing, as
`classify_cable` and `cabled_page` do, and picks the builder; the
fixed-pair builders take the window pair, whatever the book's framing.

Curve naming: a page word names the chain c1..c{2g+1}, of the classes
`curves.chain_classes(g)` (none on a disk page), and bdry_1.  On
nodule i of a connected-binding cable, :func:`lift_to_nodule` maps c_k to
the k-th curve of the nodule chain, which ends in "n{i}_{2g+1}", and bdry_1
to the nodule boundary "partial{i}"; a disconnected binding lifts the chain
only, and every other name is refused.  The crossing curve between (p,
1)-nodules j and j+1 is "x{j}".
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

from .classify import CableCoefficients, cabled_page, stabilization_count_pq_from_p1
from .curves import CurveInfo, CurveSystem, CurveSystemError, chain_classes, symplectic_pairing
from .openbook import BindingComponent, RationalOpenBook, normalize_to_window, window_shift
from .words import DEHN, FRACTIONAL, Generator, TwistWord, each_letter_once


class MonodromyError(ValueError):
    pass


def branch_point_count(g: int, n: int) -> int:
    """Branch points of the simple cover presenting the trivial open book.

    Disconnected binding (n >= 2 boundary components): an n-fold simple
    cover of the disk branched over (2g+2) + 2(n-2) points.  Connected
    binding: the 2-fold cover branched over 2g+1 points.
    """
    if n < 1 or g < 0:
        raise MonodromyError("need g >= 0 and n >= 1")
    if n == 1:
        return 2 * g + 1
    return (2 * g + 2) + 2 * (n - 2)


# -- curve systems for connected-binding cables ------------------------------


def p1_layout(g: int, j: int) -> list[str]:
    """The chain of 4g+1 curves on the two-nodule sublayout between nodules
    j and j+1: nodule j's even chain, the crossing curve, then nodule j+1's
    even chain reversed."""
    left = [f"n{j}_{k}" for k in range(1, 2 * g + 1)]
    right = [f"n{j + 1}_{k}" for k in range(2 * g, 0, -1)]
    return left + [f"x{j}"] + right


@lru_cache(maxsize=None)
def _nodule_block(g: int) -> tuple[tuple, tuple, tuple]:
    """The one page model of genus g, for the (p,1) and the (2,2) page,
    checked here once per genus and nowhere else: the classes v_1..v_{2g+1}
    of `chain_classes(g)` and those of layout 1 (:func:`p1_layout`), each as
    its (coordinate, entry) pairs, and the turn of layout 1's Garside block
    as (t, (u, s)) pairs.  The chain relation (T_c1 ... T_c2g)^(4g+2) =
    T_bdry_1 (Farb-Margalit, Prop. 4.12) must hold on homology, where bdry_1
    has zero class: the chain word's matrix M sends the Z-basis v_1..v_2g as
    :func:`_companion_images` says, so M^(2g+1) = -I.  Nodule 2's mirrored
    classes are signed alternately, and every pair of layout 1 is checked
    exactly: neighbours pair to +1, others to 0 (a chain); so is every pair
    of c1..c{2g+1}, as x1 is v_{2g+1} on nodule 1.

    The block's turn, none of its letters evaluated, is :func:`_nodule_swap`,
    minus the swap of the two nodules: the one closed-form turn, which both
    cable pages' rotations derive from.  The block is the half twist of the
    chain c_1..c_m of layout 1, m = 4g+1: the lift of the braid half twist,
    which turns the disk by pi, so it carries c_i to +-c_{m+1-i}
    (Farb-Margalit, ch. 9), as :func:`_checked_turn` checks, and x1 = c_{2g+1}
    to itself."""
    block = chain_classes(g)
    nodule = CurveSystem(genus=g, boundary_labels=(), name=f"nodule_g{g}")
    nodule.curves.update((f"c{k}", CurveInfo(v, 2 * g)) for k, v in enumerate(block[:-1], 1))
    chain = nodule.word_delta(TwistWord.twists(*nodule.curves))
    for v, want in zip(block[:-1], _companion_images(block[:-1])):
        image = dict(v)
        for t, x in v.items():
            for r, y in chain.get(t, {}).items():
                image[r] = image.get(r, 0) + x * y
        if {t: x for t, x in image.items() if x} != want:
            raise CurveSystemError(f"the genus-{g} chain relation fails the homology oracle")
    # x1 pairs once with the last even-chain curve of each nodule, 0 with the
    # rest: w = -v_{2g+1} alone pairs 0 with v_1..v_{2g-1} and 1 with v_{2g}; x1 = -w, +w.
    x1 = {**block[-1], **{2 * g + t: -x for t, x in block[-1].items()}}
    layout = (*block[:-1], x1, *({2 * g + t: (-1) ** k * x for t, x in v.items()}
                                 for k, v in enumerate(block[-2::-1])))
    partners: dict[int, set[int]] = {}  # t: the classes holding t ^ 1; the rest pair to 0
    for b, v in enumerate(layout):
        for t in v:
            partners.setdefault(t ^ 1, set()).add(b)
    for a, u in enumerate(layout):
        for b in sorted({a + 1}.union(*(partners.get(t, ()) for t in u)) - {4 * g + 1}):
            want = int(b == a + 1)
            if b > a and symplectic_pairing(u, layout[b]) != want:
                raise CurveSystemError(f"layout 1 records {a},{b} = {want}, but the classes differ")
    return (tuple(tuple(v.items()) for v in block), tuple(tuple(v.items()) for v in layout),
            _checked_turn(layout, _nodule_swap(g)))


def _companion_images(chain: Sequence[dict[int, int]]) -> list[dict[int, int]]:
    """The images of v_1..v_2g under the companion matrix of (t^(2g+1) + 1)/(t + 1),
    a divisor of t^(2g+1) + 1: v_k -> v_{k+1} for k < 2g, v_2g -> sum (-1)^k v_k."""
    last: dict[int, int] = {}
    for k, v in enumerate(chain, 1):
        for t, x in v.items():
            last[t] = last.get(t, 0) + (-1) ** k * x
    return [*chain[1:], {t: x for t, x in last.items() if x}]


def _nodule_swap(g: int) -> dict[int, tuple[int, int]]:
    """The turn e_t -> -e_{t+-2g}, minus the swap of layout 1's nodules."""
    return {t: ((t + 2 * g) % (4 * g), -1) for t in range(4 * g)}


def _checked_turn(chain: Sequence[dict[int, int]], turn: dict) -> tuple:
    """`turn` as (t, (u, s)) pairs, refused unless its signed permutation,
    P e_t = s e_u, sends each class u_i of the chain u_1..u_m, m odd, whose
    neighbours pair to +1, to s_i u_{m+1-i}, the signs s_i alternating from
    s_1 = +1, so the middle class is fixed: it keeps each neighbour pairing,
    as a half twist's lift does (Farb-Margalit, ch. 9), and on a spanning
    chain this fixes the map.  No pairing is made."""
    m, sign = len(chain), 1
    for i, (u, mirror) in enumerate(zip(chain, reversed(chain)), 1):
        image: dict[int, int] = {}
        for t, x in u.items():
            r, s = turn.get(t, (t, 1))
            image[r] = image.get(r, 0) + s * x
        image = {t: x for t, x in image.items() if x}
        if image != {t: sign * x for t, x in mirror.items()}:
            wrong = image == {t: -sign * x for t, x in mirror.items()}
            raise CurveSystemError(f"the half twist sends class {i} to " + (
                f"the wrong sign of class {m + 1 - i}" if wrong else f"no +-class {m + 1 - i}"))
        sign = -sign
    return tuple(turn.items())


def cable_p1_system(g: int, p: int, sign: int = 1) -> CurveSystem:
    """Curve system on the (p,1)-cable page of a genus-g one-boundary page.

    The page has genus p*g and one boundary.  Nodule chains carry block
    homology classes; the crossing curve x_j is v_{2g+1} on block j and
    -v_{2g+1} on block j+1 (v the block chain).  The page records no
    intersection, so every pair reads None, and a `commute` step refuses on
    it.  Each nodule boundary partial{i} has zero class, and its twist the
    expansion (n{i}_1 ... n{i}_{2g})^(4g+2), stored as the names of its
    2g-curve chain, for the mod-10 lengths.  Time and memory are linear in p.

    The build checks nothing: it installs :func:`_nodule_block`'s checked
    model as CurveInfos straight into `curves`, nodule i the block and x_i
    the template's x1, moved by 2g(i-1) coordinates.  The move sends a_k, b_k
    to a_{k+g(i-1)}, b_{k+g(i-1)}, an isometry of the form, so layout i is a
    chain as layout 1 is, nodule i's chain word has the block's delta
    moved, empty as the block's is, and a zero class pairs to 0 with every
    curve.  The `rotation` run is :func:`rho_p1_rotation`'s word for `sign`
    (-1, the inverse, for :func:`negative_cable_word` only).  Its turn is
    composed once, in the word's order, from layout 1's checked turn moved
    by 2g(j-1) for each layout j, as twists about layout j's classes read
    and change only the 4g coordinates from 2g(j-1) on; that turn is an
    involution, and the boundary twists of the run have zero class.
    Neither refusal of `add_curve` can fire: every name differs by prefix or
    index, and the moved classes keep the template's nonzero, ascending
    entries, nodule i's below 2gi and x_i's below 2g(i+1) <= dim.  The tests
    compare the build with a reference that runs check() on a recorded table
    and every nodule's relation, and the turn with the run letter by letter.
    """
    if p < 1:
        raise MonodromyError("need p >= 1")
    if g < 1:
        raise MonodromyError("disk and annulus pages have no chain model here")
    sys = CurveSystem(genus=p * g, boundary_labels=("outer",), name=f"cable_p1_g{g}_p{p}")
    block, layout, half = _nodule_block(g)
    n, curves = sys.dim, sys.curves
    for i in range(1, p + 1):
        for k, v in enumerate(block, 1):
            curves[f"n{i}_{k}"] = CurveInfo({2 * g * (i - 1) + t: x for t, x in v}, n)
    for j in range(1, p):
        curves[f"x{j}"] = CurveInfo({2 * g * (j - 1) + t: x for t, x in layout[2 * g]}, n)
    for i in range(1, p + 1):
        curves[f"partial{i}"] = CurveInfo({}, n)
        sys.expansions[f"partial{i}"] = tuple(_p1_chain(g, i)[:-1])
    sys.add_boundary_curves()
    turn: dict[int, tuple[int, int]] = {}  # P e_t = y e_v, the identity where unset
    for s in range(0, 2 * g * (p - 1), 2 * g)[::sign]:  # P <- P B, B e_t = x e_u
        turn.update([(t + s, (v, x * y)) for t, (u, x) in half
                     for v, y in [turn.get(u + s, (u + s, 1))]])
    sys.rotation = rho_p1_rotation(g, p, sign).generators, turn
    return sys


@lru_cache(maxsize=None)
def _garside_pattern(m: int) -> tuple[int, ...]:
    """The chain indices, letter by letter, of the Garside block over m curves."""
    return tuple(k for start in range(m - 1, -1, -1) for k in range(start, m))


def garside_block(chain: Sequence[str]) -> TwistWord:
    """(D_m) o (D_{m-1} D_m) o ... o (D_1 ... D_m) over the chain curves."""
    letters = [Generator.dehn_twist(name) for name in chain]
    return TwistWord(tuple(map(letters.__getitem__, _garside_pattern(len(chain)))))


def rho_p1_rotation(g: int, p: int, sign: int = 1) -> TwistWord:
    """The rotation word of the connected-binding (p,1)-cable (for sign -1,
    its inverse, spelled directly): leading negative nodule boundary twists,
    then one block per adjacent nodule pair, each a negative boundary twist
    followed by the positive Garside block of its layout chain, laid out from
    the Garside pattern over one shared Generator per distinct (curve, sign)."""
    layouts = [p1_layout(g, j) for j in range(1, p)]
    names = dict.fromkeys(name for layout in layouts for name in layout)
    twist = {name: Generator.dehn_twist(name, sign) for name in names}
    bdry = [Generator.dehn_twist(f"partial{j}", -sign) for j in range(1, p + 1)]
    gens, pattern = bdry[:0:-1], _garside_pattern(4 * g + 1)
    for j, layout in enumerate(layouts, 1):
        letters = [twist[name] for name in layout]
        gens.append(bdry[j - 1])
        gens.extend(map(letters.__getitem__, pattern))
    return TwistWord(tuple(gens[::sign]))


def lift_to_nodule(word: TwistWord, chain: Sequence[str],
                   boundary: Optional[str] = None) -> TwistWord:
    """The lift of a page word onto one nodule, one rename per distinct
    letter (`each_letter_once`): the chain curve c_k becomes chain[k-1] and
    bdry_1 becomes `boundary`.  Any other letter raises MonodromyError: a
    letter that is no Dehn twist (any in the word, first), then a curve
    with no image on this nodule."""
    images = {f"c{k}": name for k, name in enumerate(chain, 1)}
    if boundary is not None:
        images["bdry_1"] = boundary
    for letter in word:
        if letter.kind != DEHN:
            raise MonodromyError(f"only Dehn twists lift to a nodule, got {letter}")

    def lift(letter: Generator) -> Generator:
        if letter.curve not in images:
            raise MonodromyError(f"curve {letter.curve} has no nodule model")
        return Generator.dehn_twist(images[letter.curve], letter.sign)

    return TwistWord(each_letter_once(word.generators, lift))


def _p1_chain(g: int, i: int) -> list[str]:
    """The chain n{i}_1..n{i}_{2g+1} of nodule i on a (p,1)-cable page; a
    disk page has none."""
    return [f"n{i}_{k}" for k in range(1, 2 * g + 2)] if g else []


class CableWord:
    __slots__ = ("word", "system", "book", "notes")

    def __init__(self, word: TwistWord, system: Optional[CurveSystem], book: RationalOpenBook,
                 notes: Optional[dict] = None):
        self.word, self.system, self.book = word, system, book
        self.notes = {} if notes is None else notes


def _page(book: RationalOpenBook, p: int, q: int) -> RationalOpenBook:
    """The page of the (p, q)-cable of every component, (p, q) in the window,
    read as (p, q - k p), k the window shift, so `cabled_page` reframes once."""
    return cabled_page(book, CableCoefficients(
        tuple((p, q - window_shift(c) * p) for c in book.components)))


def _require_integral_connected(book: RationalOpenBook) -> None:
    if not book.is_integral or not book.has_connected_binding:
        raise MonodromyError("this word needs an integral book with connected binding")


def monodromy_p1_connected(book: RationalOpenBook, p: int) -> CableWord:
    """The (p,1)-cable monodromy of an integral open book with connected
    binding: the page's rotation run (negative twists exactly at the nodule
    boundaries) composed with the lift of the monodromy on nodule 1."""
    _require_integral_connected(book)
    g = book.genus
    phi = lift_to_nodule(book.monodromy or TwistWord(()), _p1_chain(g, 1), "partial1")
    sys = cable_p1_system(g, p)
    return CableWord(TwistWord(sys.rotation[0] + phi.generators), sys, _page(book, p, 1))


def monodromy_p1_disconnected(book: RationalOpenBook, p: int) -> CableWord:
    """The (p,1)-cable monodromy for disconnected binding: the positive
    word of d(p-1) twists lifted from the band word of the unwound braid,
    then the lift of the monodromy on nodule 1.

    Curves are named c{row}_{j} after the band between nodule rows; no
    homology model ships for simple covers of degree above two, so the
    system slot is empty and only combinatorial invariants are testable.
    """
    if not book.is_integral:
        raise MonodromyError("cable words are built for integral books")
    n = len(book.components)
    if n < 2:
        raise MonodromyError("connected binding: use monodromy_p1_connected")
    if p < 1:
        raise MonodromyError("need p >= 1")
    d = branch_point_count(book.genus, n)
    rotation = TwistWord.twists(*(f"c{row}_{j}" for row in range(1, p) for j in range(d, 0, -1)))
    phi = lift_to_nodule(book.monodromy or TwistWord(()), _p1_chain(book.genus, 1))
    return CableWord(rotation.compose(phi), None, _page(book, p, 1))


def sigma22_cover_system(g: int) -> CurveSystem:
    """Curve system of the (2,2)-cable page (genus 2g, two boundaries) as
    the double cover of the disk branched over 4g+2 points: the covering
    chain e1..e{4g+1}, the rotation curves rho22_1..rho22_{2g+1}, and on
    nodule i the chain end n{i}_{2g+1} and the boundary partial{i}.

    The rotation braid is the band word d1 s_{1,2g+2} ... s_{2g+1,4g+2} d1^-1
    (d1 the half twist on the first 2g+1 strands).  Its i-th conjugated band
    is the arc between branch points 2g+2-i and 2g+1+i, whose lift is the
    signed chain sum rho22_i = s_i * sum_{k=2g+2-i}^{2g+i} eps_k e_k, with
    eps_k = (-1)^max(0, k-2g-1) and s_i = (-1)^max(0, floor((2g-i)/2)).

    The chain is :func:`_nodule_block`'s checked layout 1: e1..e{2g} are
    nodule 1's chain, e{2g+1} is x1 = n1_{2g+1} - n2_{2g+1}, e{4g+1}..e{2g+2}
    are nodule 2's, and each chain end n{i}_{2g+1} is v_{2g+1} moved to
    nodule i, as in `cable_p1_system`, so layout 1's check pairs it.
    A nodule boundary separates, so partial{i} has zero class.  At g = 0 the
    page is an annulus: the one chain curve and the one rotation curve are
    its core, of zero class, and nodules have no chain.  The page records no
    intersection, so every pair reads None and a `commute` step refuses.
    Each call is a fresh system of :func:`_cover22_model`'s CurveInfos, and
    its `rotation` the model's very run and a copy of its turn."""
    if g < 0:
        raise MonodromyError(f"sigma22_cover_system needs genus g >= 0, got {g}")
    curves, run, turn = _cover22_model(g)
    sys = CurveSystem(genus=2 * g, boundary_labels=("1", "2"), name=f"cover22_g{g}")
    sys.curves.update(curves)
    sys.rotation = run, dict(turn)
    return sys


@lru_cache(maxsize=None)
def _cover22_model(g: int) -> tuple[tuple, tuple[Generator, ...], tuple]:
    """The page of :func:`sigma22_cover_system`, built once per genus on
    :func:`_nodule_block`'s checked model: its (name, CurveInfo) pairs,
    entries nonzero and ascending, and its `rotation`: the run of twists
    about rho22_{2g+1}, ..., rho22_1 and the run's turn.  The rotation braid
    (`r22_braid` in the tests) is the half twist of the 4g+2 strands, whose
    lift is layout 1's block, times inverse full twists of 2g+1 strands,
    whose lifts are -1 on a nodule's homology (Farb-Margalit, ch. 9): minus
    the block, so the turn is the block's checked turn, every sign negated."""
    block, layout, half = _nodule_block(g)
    n, chain = 4 * g, [dict(v) for v in layout]
    curves = {f"e{k}": CurveInfo(cls, n) for k, cls in enumerate(chain, 1)}
    rho_names = tuple(f"rho22_{i}" for i in range(1, 2 * g + 2))
    window: dict[int, int] = {}  # sum of eps_k e_k over the arc's window, grown at both ends
    for i, name in enumerate(rho_names, 1):
        for k in {2 * g + 2 - i, 2 * g + i}:
            eps = (-1) ** max(0, k - 2 * g - 1)
            for t, x in chain[k - 1].items():
                window[t] = window.get(t, 0) + eps * x
        sign = (-1) ** max(0, (2 * g - i) // 2)
        curves[name] = CurveInfo({t: sign * window[t] for t in sorted(window) if window[t]}, n)
    for i, s in ((1, 0), (2, 2 * g)):  # v_{2g+1}, moved to nodule i
        curves[f"partial{i}"] = CurveInfo({}, n)
        if g:
            curves[f"n{i}_{2 * g + 1}"] = CurveInfo({s + t: x for t, x in block[-1]}, n)
    curves["bdry_1"] = curves["bdry_2"] = CurveInfo({}, n)
    turn = tuple((t, (u, -s)) for t, (u, s) in half)
    return tuple(curves.items()), TwistWord.twists(*reversed(rho_names)).generators, turn


def _e_chain(g: int, i: int) -> list[str]:
    """The chain of nodule i on the (2,2)-cable page: nodule 1 is covered by
    e1..e{2g}, nodule 2 mirrors it to e{4g+1}..e{2g+2}, and both end in
    n{i}_{2g+1}; a disk page has none."""
    covered = [f"e{k if i == 1 else 4 * g + 2 - k}" for k in range(1, 2 * g + 1)]
    return covered + [f"n{i}_{2 * g + 1}"] if g else []


def monodromy_22_connected(book: RationalOpenBook) -> CableWord:
    """The (2,2)-cable monodromy: the 2g+1 positive twists of the rotation
    run of :func:`sigma22_cover_system`, then the lift of the monodromy on
    nodule 1 (the chain of :func:`_e_chain` and partial1).
    """
    _require_integral_connected(book)
    g = book.genus
    sys = sigma22_cover_system(g)
    phi = lift_to_nodule(book.monodromy or TwistWord(()), _e_chain(g, 1), "partial1")
    return CableWord(TwistWord(sys.rotation[0] + phi.generators), sys, _page(book, 2, 2))


def monodromy_pq(book: RationalOpenBook, p: int, q: int) -> CableWord:
    """The (p, q)-cable word of every component, (p, q) read in the book's
    own framing: reframing a component by k reads q as q + k p in its
    window, where the builder is chosen.  A negative q is the negative
    cable of an (r, -1)-book, built for the window pair (r-1, -1) only; a
    connected (2, 2) is the rotation word; any other pair is the (p, sgn q)
    word plus (|p|-1)(|q|-1) positive stabilization markers."""
    book, window = CableCoefficients(((p, q),) * len(book.components)).in_window(book)
    if len(set(window.pairs)) > 1:
        raise MonodromyError(f"--cable {p},{q} reads as the window pairs {list(window.pairs)} "
                             "of the components; a cable word needs one pair")
    p, q = window.pairs[0]
    if q < 0:
        cw = negative_cable_word(book)
        r = book.components[0].order
        if (p, q) != (r - 1, -1):
            raise MonodromyError(f"the negative cable word of a ({r},-1)-book is built for "
                                 f"the window pair ({r - 1},-1) only, got ({p},{q})")
        return cw
    if (p, q) == (2, 2) and book.has_connected_binding:
        return monodromy_22_connected(book)
    if book.has_connected_binding:
        base = monodromy_p1_connected(book, p)
    else:
        base = monodromy_p1_disconnected(book, p)
    if q == 1:
        return base
    markers = tuple(Generator.stabilization_marker(f"cable_{p}_{q}_{i}")
                    for i in range(stabilization_count_pq_from_p1(p, q)))
    return CableWord(base.word.compose(TwistWord(markers)), base.system, _page(book, p, q))


# -- negative cables, resolution words, the obstruction ----------------------


def negative_cable_word(book: RationalOpenBook) -> CableWord:
    """Normal form of the (r-1, -1)-cable of an (r, -1)-book with connected
    binding (Sigma, delta_{1/r} o phi): on the (r-1, 1)-cable page it reads
    delta_{1/r} o rho_{(r-1,1)}^{-1} o partial1^{2-r} o phi-lift."""
    if not book.has_connected_binding:
        raise MonodromyError("the negative-cable normal form needs connected binding")
    comp = normalize_to_window(book.components[0])
    r = comp.order
    if r < 2 or comp.seifert_numerator != -1:
        raise MonodromyError("book must be in (r, -1) form with r >= 2")
    g, p = book.genus, r - 1
    # boundary twists of the pattern page lift to nodule-1 boundary twists
    phi = lift_to_nodule(TwistWord(tuple(x for x in book.monodromy or () if x.kind != FRACTIONAL)),
                         _p1_chain(g, 1), "partial1")
    from fractions import Fraction
    sys = cable_p1_system(g, p, -1)
    word = TwistWord((Generator.fractional_boundary("outer", Fraction(1, r)), *sys.rotation[0],
                      *TwistWord.twists(("partial1", -1)).power(r - 2), *phi))
    page = RationalOpenBook(genus=p * g, monodromy=word,
                            components=(BindingComponent(order=r, seifert_numerator=-1),))
    return CableWord(word, sys, page)


class ObstructionReport:
    """The three values the obstruction cannot derive; the rest follow."""

    __slots__ = ("p", "algebraic_length", "word_length")

    def __init__(self, p: int, algebraic_length: int, word_length: int):
        self.p, self.algebraic_length, self.word_length = p, algebraic_length, word_length

    mod10_length = property(lambda self: self.algebraic_length % 10)
    filling_euler_characteristic = property(lambda self: self.p)
    positive_factorization_length = property(lambda self: self.p + 3)
    required_mod10 = property(lambda self: (self.p + 3) % 10)
    obstructed = property(lambda self: self.mod10_length != self.required_mod10)

    def __repr__(self):
        return f"ObstructionReport{tuple(getattr(self, f) for f in ObstructionReport.__slots__)}"

    def summary(self) -> str:
        if not self.obstructed:
            return f"L({self.p},{self.p - 1}): residues agree; no obstruction"
        return (
            f"L({self.p},{self.p - 1}): the cable word has algebraic length "
            f"{self.algebraic_length}, so any twist factorization has length "
            f"{self.mod10_length} (mod 10); the unique minimal filling has "
            f"Euler characteristic {self.filling_euler_characteristic}, so a "
            f"positive factorization would need length "
            f"{self.positive_factorization_length}, i.e. {self.required_mod10} "
            f"(mod 10). OBSTRUCTED: the residues differ, so this monodromy "
            f"has no positive factorization"
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "algebraic_length": self.algebraic_length,
            "mod10_length": self.mod10_length,
            "required_mod10": self.required_mod10,
            "filling_euler_characteristic": self.filling_euler_characteristic,
            "positive_factorization_length": self.positive_factorization_length,
            "obstructed": self.obstructed,
            "verdict": "OBSTRUCTED" if self.obstructed else "NOT-OBSTRUCTED",
        }


def stein_obstruction_Lppm1(p: int) -> ObstructionReport:
    """The length obstruction for the (2,1)-cable of the genus-one open book
    (T^2-page, D_1^p o D_2) supporting the standard tight structure on
    L(p, p-1).

    The cable page, of two genus-1 nodules on a connected binding, has genus
    2 and one boundary.  Its mapping class group's abelianization has order
    10 (Farb-Margalit, ch. 5), and the nonseparating twists, all conjugate,
    map to one generator: a word's image is its algebraic length mod 10.

    The cable word's algebraic length is 15 - 24 + p + 1 = p - 8 after the
    nodule boundary twists are expanded through the one-holed-torus chain
    factorization.  The unique minimal symplectic filling has Euler
    characteristic p, so a positive factorization would need p + 3 twists
    (one 0-handle, four 1-handles, one 2-handle per twist).  The residues
    p - 8 and p + 3 differ mod 10 for every p, so no positive factorization
    exists.
    """
    from .curves import algebraic_length

    if p < 1:
        raise MonodromyError("need p >= 1")
    word = TwistWord.twists("c1").power(p).compose(TwistWord.twists("c2"))
    base = RationalOpenBook(genus=1, components=(BindingComponent(order=1, seifert_numerator=0),),
                            monodromy=word)
    cable = monodromy_p1_connected(base, 2)
    return ObstructionReport(p, algebraic_length(cable.word, cable.system), len(cable.word))


# -- cobordism words ----------------------------------------------------------


def compose_cobordism_word(
    phi1: TwistWord, phi2: TwistWord, page: RationalOpenBook
) -> CableWord:
    """Word of the open book at the convex end of the Stein cobordism from
    the disjoint union of (page, phi1) and (page, phi2): the all-positive
    rotation of the doubled page, then phi2 lifted to nodule 2 and phi1 to
    nodule 1.

    For connected binding the doubled page is the (2,2)-cable page (the
    rotation has 2g+1 positive twists) and the certificate records, via the
    homology oracle, that conjugating the nodule-2 factor past the rotation
    lands it on nodule 1.  For disconnected binding the (2,1)-cable rotation
    is used and the certificate is combinatorial.
    """
    g, empty = page.genus, page.with_monodromy(TwistWord(()))
    if not page.has_connected_binding:
        base = monodromy_p1_disconnected(empty, 2)
        word = base.word.compose(lift_to_nodule(phi2, _p1_chain(g, 2))).compose(
            lift_to_nodule(phi1, _p1_chain(g, 1)))
        return CableWord(word, None, base.book,
                         {"rotation_positive": base.word.is_positive(), "nodules": 2})
    base, near = monodromy_22_connected(empty), _e_chain(g, 1)
    sys, lift1 = base.system, lift_to_nodule(phi1, near, "partial1")
    lift2 = lift_to_nodule(phi2, _e_chain(g, 2), "partial2")
    # a word's matrix is the product of its letters' from left to right,
    # so rot . lift2 . rot^-1 evaluates to R M_2 R^-1, R the page's turn
    conj = _conjugate(sys.word_delta(lift2), sys.rotation[1])
    if conj != sys.word_delta(lift_to_nodule(phi2, near, "partial1")):
        raise MonodromyError("destabilization certificate failed the oracle")
    certificate = {"conjugation_lands_on_nodule_1": True,
                   "rotation_positive": base.word.is_positive()}
    return CableWord(base.word.compose(lift2).compose(lift1), sys, base.book, certificate)


def _conjugate(delta: dict[int, dict[int, int]], turn: dict[int, tuple[int, int]]) -> dict:
    """The delta of R (I + delta) R^-1 for the turn R e_j = s_j e_pi(j): the
    entry s_i s_j delta[i][j] moved to (pi(i), pi(j)), with no product."""
    return {turn[j][0]: {turn[i][0]: turn[i][1] * turn[j][1] * x for i, x in col.items()}
            for j, col in delta.items()}
