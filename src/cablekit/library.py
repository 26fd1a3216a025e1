"""Shipped curve systems, relations, and replayable rewrite scripts.

Four scripts are bundled:

* stabilize_21_to_22 -- from the (2,1)-cable word of the genus-one open book
  with monodromy D_1 o D_2, plus one positive stabilization, through two
  lantern substitutions, cancellations, and twist slides, to the positive
  three-twist form D_delta3 o D_delta2 o D_delta1 o phi-lift on the twice-
  punctured genus-2 page.
* garside_square_boundary -- consumes the square of the lifted Garside block
  into the page boundary twist.
* negative_cable_positive_refactor -- from the resolved (2,-1)-cable of the
  (3,-1)-book (Sigma, delta_{1/3} o boundary^2) to an all-positive word, via
  the five-holed-sphere lantern and the Garside square.
* genlantern_from_two_lanterns -- derives the five-holed-sphere lantern used
  above from two classic lanterns on the resolved page.

The figure-derived curves of the two genus-2 script pages are declared below
by their classes over the basis a1, b1, a2, b2.  Every relation is gated by
the homology oracle at load time and every recorded intersection is checked
against the stored classes.
"""

from __future__ import annotations

from itertools import combinations, product

from .classify import resolve
from .curves import CurveSystem
from .monodromy import (
    cable_p1_system,
    garside_block,
    monodromy_p1_connected,
    negative_cable_word,
    p1_layout,
)
from .openbook import BindingComponent, RationalOpenBook, positive_stabilize
from .rewrite import RelationRegistry, RewriteScript, Step, replay
from .words import Generator, TwistWord


def _h1(a1: int = 0, b1: int = 0, a2: int = 0, b2: int = 0) -> dict[int, int]:
    """The class a1*a_1 + b1*b_1 + a2*a_2 + b2*b_2 of a genus-2 script page."""
    return {0: a1, 1: b1, 2: a2, 3: b2}


def _script_page(name: str, labels: tuple[str, ...], separating: tuple[str, ...]) -> CurveSystem:
    """What both genus-2 script pages start from: the chain n1_1, n1_2, x1,
    n2_2, n2_1 of the (2,1)-cable page, recording its ten pairs' intersections,
    then the zero-class separating curves `separating`.  Their classes are
    the images of cable_p1_system(1, 2)'s under the symplectic map fixing a1,
    b1 and negating a2, b2, with n2_1 reversed; twists do not see a curve's
    orientation, so a homology fact replayed here holds on the cable page."""
    sys = CurveSystem(genus=2, boundary_labels=labels, name=name)
    chain = {"n1_1": _h1(a1=1), "n1_2": _h1(b1=1), "x1": _h1(a1=-1, a2=-1),
             "n2_2": _h1(b2=-1), "n2_1": _h1(a2=1)}
    for curve, cls in chain.items():
        sys.add_curve(curve, cls)
    for (i, a), (j, b) in combinations(enumerate(chain), 2):
        sys.record_intersection(a, b, int(j == i + 1))
    for curve in separating:
        sys.add_curve(curve, _h1())
    return sys


class ScriptBundle:
    """A script together with the registry it replays against and the words
    that anchor it: the start word and the expected final word."""

    __slots__ = ("script", "registry", "start", "expect")

    def __init__(self, script: RewriteScript, registry: RelationRegistry, start: TwistWord,
                 expect: TwistWord):
        self.script, self.registry, self.start, self.expect = script, registry, start, expect

    def replay(self):
        return replay(self.script, self.start, self.registry, expect=self.expect)


# -- the stabilization script (genus-one input) ------------------------------


def sigma22_script_system() -> CurveSystem:
    """The stabilized (2,1)-cable page for a genus-one pattern: genus 2, two
    boundary circles, carrying the cable chain, the rotation curves of the
    capped form, both lantern configurations, and the slide images."""
    sys = _script_page("sigma22_g1_script", ("1", "2"), ("partial1", "partial2"))
    c1, c4 = _h1(a1=-2, b1=-3, a2=-3, b2=-3), _h1(a1=-3, b1=-3, a2=-2, b2=-3)
    d1, d2, d3 = _h1(a1=-1, a2=1), _h1(a1=-1, b1=1, a2=1, b2=-1), _h1(b1=1, b2=-1)
    u1 = _h1(a1=-3, b1=-2, a2=-2, b2=-4)
    for curve, cls in {
        "gamma": _h1(),  # the stabilization curve: of zero class, so separating
        "d1": d1, "d2": d2, "d3": d3,
        "c1": c1, "c2": _h1(a1=2, b1=3, a2=3, b2=3), "c3": _h1(a1=3, b1=3, a2=2, b2=3),
        "c4": c4, "cp1": c1, "cp4": c4,
        "beta": _h1(a1=-5, b1=-6, a2=-5, b2=-6),
        "delta1": d1, "delta2": d2, "delta3": d3,
        "e2t": _h1(a1=2, b1=4, a2=3, b2=2), "e3t": _h1(a1=3, b1=4, a2=2, b2=2),
        "u1": u1, "v1": u1,
    }.items():
        sys.add_curve(curve, cls)
    sys.add_boundary_curves()
    for a, b in [("gamma", "n1_1"), ("gamma", "n1_2"), ("gamma", "partial2"),
                 ("partial1", "partial2"), *combinations(("c3", "c2", "c1", "cp4"), 2)]:
        sys.record_intersection(a, b, 0)
    sys.check()
    return sys


def _tw(*items) -> TwistWord:
    return TwistWord.twists(*items)


def sigma22_registry() -> RelationRegistry:
    reg = RelationRegistry(sigma22_script_system())
    block = garside_block(p1_layout(1, 1))
    lhs = TwistWord.of(
        Generator.dehn_twist("partial2", -1), Generator.dehn_twist("partial1", -1)
    ).compose(block)
    reg.register(
        "rho21_dform",
        lhs,
        _tw("d3", "d2", "d1", ("partial2", -1)),
    )
    reg.register(
        "lantern_gamma",
        _tw("d1", "gamma"),
        _tw("c4", "c3", "c2", "c1", ("beta", -1)),
    )
    reg.register(
        "lantern_boundary",
        _tw(("beta", -1), ("partial2", -1)),
        _tw(("cp4", -1), ("c3", -1), ("c2", -1), ("cp1", -1), "delta1"),
    )
    # conjugations: each slides one twist past another, renaming one curve
    for name, lhs, rhs in [
        ("conj_d2_c4", _tw("d2", "c4"), _tw("c4", "e2t")),
        ("conj_e2_cp4", _tw("e2t", ("cp4", -1)), _tw(("cp4", -1), "delta2")),
        ("conj_d3_c4", _tw("d3", "c4"), _tw("c4", "e3t")),
        ("conj_e3_cp4", _tw("e3t", ("cp4", -1)), _tw(("cp4", -1), "delta3")),
        ("conj_delta2_c1", _tw("delta2", "c1"), _tw("u1", "delta2")),
        ("conj_delta3_u1", _tw("delta3", "u1"), _tw("cp4", "delta3")),
        ("conj_delta2_cp1inv", _tw("delta2", ("cp1", -1)), _tw(("v1", -1), "delta2")),
        ("conj_delta3_v1inv", _tw("delta3", ("v1", -1)), _tw(("c4", -1), "delta3")),
    ]:
        reg.register(name, lhs, rhs)
    return reg


def stabilization_bundle() -> ScriptBundle:
    """Script (a): the (2,1)-cable word of (T^2, D_1 o D_2) plus one positive
    stabilization replays to D_delta3 o D_delta2 o D_delta1 o phi-lift."""
    reg = sigma22_registry()
    base = RationalOpenBook(
        genus=1,
        components=(BindingComponent(order=1, seifert_numerator=0),),
        monodromy=TwistWord.twists("c1", "c2"),
    )
    cable = monodromy_p1_connected(base, 2)
    cable_book = cable.book.with_monodromy(cable.word)
    start = positive_stabilize(cable_book, 0, mode="same", curve_name="gamma").monodromy
    expect = _tw("delta3", "delta2", "delta1", "n1_1", "n1_2")
    script = RewriteScript("stabilize_21_to_22", (
        Step("commute", 18),  # gamma past the second monodromy twist
        Step("commute", 17),  # gamma past the first monodromy twist
        Step("apply", 0, relation="rho21_dform"),
        Step("commute", 3),  # gamma past the residual boundary twist
        Step("apply", 2, relation="lantern_gamma"),
        Step("apply", 6, relation="lantern_boundary"),
        Step("commute", 3),
        Step("commute", 4),
        Step("commute", 5),
        Step("cancel", 6),  # c3 against its inverse
        Step("commute", 3),
        Step("commute", 4),
        Step("cancel", 5),  # c2 against its inverse
        Step("commute", 3),  # c1 past the negative cp4
        Step("apply", 1, relation="conj_d2_c4"),
        Step("apply", 2, relation="conj_e2_cp4"),
        Step("apply", 0, relation="conj_d3_c4"),
        Step("apply", 1, relation="conj_e3_cp4"),
        Step("apply", 3, relation="conj_delta2_c1"),
        Step("apply", 2, relation="conj_delta3_u1"),
        Step("cancel", 1),  # cp4 pair
        Step("apply", 2, relation="conj_delta2_cp1inv"),
        Step("apply", 1, relation="conj_delta3_v1inv"),
        Step("cancel", 0),  # c4 pair
    ))
    return ScriptBundle(script, reg, start, expect)


# -- the Garside square -------------------------------------------------------


def garside_square_bundle() -> ScriptBundle:
    """Script (b): the square of the lifted Garside block is the boundary
    twist of the (2,1)-cable page of genus one."""
    reg = RelationRegistry(cable_p1_system(1, 2))
    block = garside_block(p1_layout(1, 1))
    reg.register("garside_square", block.compose(block), _tw("bdry_outer"))
    script = RewriteScript("garside_square_boundary",
                           (Step("apply", 0, relation="garside_square"),))
    return ScriptBundle(script, reg, block.compose(block), _tw("bdry_outer"))


# -- the positive refactorization ---------------------------------------------


def resolved_system() -> CurveSystem:
    """The resolved (2,-1)-cable page for a genus-one pattern: genus 2, three
    boundary circles, carrying the cable chain, the boundary-parallel curves
    rb0_1..rb0_3 of the resolution and the zero-class curves of its lantern
    relations."""
    sys = _script_page("resolved_neg_cable_g1", ("1", "2", "3"),
                       ("partial1", "partial2", "dpartial", "D1g", "D2g", "D3g", "eps", "eps2"))
    for label in sys.boundary_labels:
        sys.add_curve(f"rb0_{label}", _h1())
    for a, b in [*combinations(("partial1", "partial2", "rb0_1", "rb0_2", "rb0_3", "eps"), 2),
                 *product(("D1g", "D2g"), ("partial2", "rb0_3", "eps"))]:
        sys.record_intersection(a, b, 0)
    sys.check()
    return sys


def resolved_registry() -> RelationRegistry:
    reg = RelationRegistry(resolved_system())
    block = garside_block(p1_layout(1, 1))
    reg.register(
        "genlantern",
        _tw("partial1", "partial1", "partial2", "rb0_1", "rb0_2", "rb0_3"),
        _tw("dpartial", "D3g", "D2g", "D1g"),
    )
    reg.register(
        "garside_consume",
        block.inverse().compose(_tw("dpartial")),
        block,
    )
    reg.register(
        "lantern_A",
        _tw("partial1", "rb0_1", "rb0_2", "eps"),
        _tw("eps2", "D2g", "D1g"),
    )
    reg.register(
        "lantern_B",
        _tw("partial1", "eps2", "partial2", "rb0_3"),
        _tw("dpartial", "D3g", "eps"),
    )
    return reg


def negative_cable_bundle() -> ScriptBundle:
    """Script (c): the resolved (2,-1)-cable word of (Sigma_{1,1},
    delta_{1/3} o boundary^2) refactors into 18 positive twists."""
    from fractions import Fraction
    reg = resolved_registry()
    pattern = RationalOpenBook(
        genus=1,
        components=(BindingComponent(order=3, seifert_numerator=-1),),
        monodromy=TwistWord.of(
            Generator.fractional_boundary("1", Fraction(1, 3)),
            Generator.dehn_twist("bdry_1"),
            Generator.dehn_twist("bdry_1"),
        ),
    )
    cabled = negative_cable_word(pattern)
    start = resolve(cabled.book, [0]).monodromy
    block = garside_block(p1_layout(1, 1))
    expect = block.compose(_tw("D3g", "D2g", "D1g"))
    script = RewriteScript("negative_cable_positive_refactor", (
        Step("commute", 16),  # partial2 past the inverse boundary twist
        Step("cancel", 15),  # partial1 pair
        Step("commute", 15),
        Step("commute", 16),
        Step("apply", 15, relation="genlantern"),
        Step("apply", 0, relation="garside_consume"),
    ))
    return ScriptBundle(script, reg, start, expect)


def genlantern_derivation_bundle() -> ScriptBundle:
    """The five-holed-sphere lantern derived from two classic lanterns."""
    reg = resolved_registry()
    start = _tw("partial1", "partial1", "partial2", "rb0_1", "rb0_2", "rb0_3")
    expect = _tw("dpartial", "D3g", "D2g", "D1g")
    s = RewriteScript("genlantern_from_two_lanterns", (
        Step("insert", 6, curve="eps", sign=1),
        Step("commute", 2),  # partial2 right past rb0_1
        Step("commute", 3),  # ... and rb0_2
        Step("commute", 5),  # eps left past rb0_3
        Step("commute", 4),  # ... and partial2
        Step("apply", 1, relation="lantern_A"),
        Step("commute", 3),  # D1g right past partial2
        Step("commute", 4),  # ... and rb0_3
        Step("commute", 2),  # D2g right past partial2
        Step("commute", 3),  # ... and rb0_3
        Step("apply", 0, relation="lantern_B"),
        Step("commute", 2),  # eps right past D2g
        Step("commute", 3),  # ... and D1g
        Step("cancel", 4),
    ))
    return ScriptBundle(s, reg, start, expect)


# -- classic lantern model -----------------------------------------------------


def lantern_genus3_model() -> tuple[CurveSystem, RelationRegistry]:
    """A four-holed sphere embedded in a capped genus-3 surface with all
    seven lantern curves nonseparating; the relation passes the oracle with
    a nontrivial matrix identity."""
    sys = CurveSystem(genus=3, boundary_labels=("1",), name="lantern_genus3")
    classes = {"L1": {0: 1}, "L2": {2: 1}, "L3": {4: 1},  # a_1, a_2, a_3
               "L4": {0: -1, 2: -1, 4: -1},
               "x12": {0: 1, 2: 1}, "x23": {2: 1, 4: 1}, "x13": {0: 1, 4: 1}}
    for curve, cls in classes.items():
        sys.add_curve(curve, cls)
    for pair in [("L1", "L2"), ("L1", "L3"), ("L1", "L4"), ("L2", "L3"),
                 ("L2", "L4"), ("L3", "L4")]:
        sys.record_intersection(*pair, 0)
    sys.add_boundary_curves()
    sys.check()
    reg = RelationRegistry(sys)
    reg.register(
        "lantern",
        _tw("L1", "L2", "L3", "L4"),
        _tw("x12", "x23", "x13"),
    )
    return sys, reg


SCRIPT_BUILDERS = {
    "stabilize_21_to_22": stabilization_bundle,
    "garside_square_boundary": garside_square_bundle,
    "negative_cable_positive_refactor": negative_cable_bundle,
    "genlantern_from_two_lanterns": genlantern_derivation_bundle,
}


def shipped_scripts() -> dict[str, ScriptBundle]:
    return {name: build() for name, build in SCRIPT_BUILDERS.items()}
