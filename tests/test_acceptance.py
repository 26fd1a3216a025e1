"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import itertools
import time
from fractions import Fraction

from cablekit.classify import (
    CableCoefficients,
    VerdictKind,
    classify_cable,
    hopf_delta,
    induced_open_book_from_surgery,
    resolve,
)
from cablekit.lens import (
    LensTorusKnot,
    boundary_count,
    boundary_wrap,
    euler_characteristic,
    homological_order,
)
from cablekit.library import (
    genlantern_derivation_bundle,
    lantern_genus3_model,
    negative_cable_bundle,
    resolved_registry,
    shipped_scripts,
    stabilization_bundle,
)
from cablekit.monodromy import (
    branch_point_count,
    garside_block,
    monodromy_22_connected,
    monodromy_p1_connected,
    monodromy_p1_disconnected,
    p1_layout,
    stein_obstruction_Lppm1,
)
from cablekit.openbook import BindingComponent, RationalOpenBook
from cablekit.rewrite import RelationRegistry
from cablekit.slopes import (
    Slope,
    bfs_interval_path_length,
    exceptional_slopes,
    farey_shortest_path,
    mediant_farey_graph,
)
from cablekit.words import Generator, TwistWord
from test_words_curves import chain_model, identity_matrix


def _report(criterion: str, elapsed: float, limit: float) -> None:
    print(f"PASS  criterion {criterion}  ({elapsed * 1000:.2f} ms, limit "
          f"{limit * 1000:.0f} ms)", flush=True)
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s: {elapsed}s"


def _timed(fn, warmups=1):
    for _ in range(warmups):
        fn()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_1_exceptional_slopes_and_verdicts():
    book = RationalOpenBook(genus=1, components=(BindingComponent(3, -1),))
    c_ot = CableCoefficients(((3, -2),))
    c_exc = CableCoefficients(((2, -1),))

    def body():
        assert exceptional_slopes(Slope(-1, 3)) == [Slope(-1, 2), Slope(-1)]
        assert classify_cable(book, c_ot).kind is VerdictKind.OVERTWISTED
        assert (
            classify_cable(book, c_exc).kind
            is VerdictKind.EXCEPTIONAL_TIGHT_POSSIBLE
        )

    elapsed = _timed(body, warmups=3)
    _report("1 (exceptional slopes and cable verdicts)", elapsed, 0.001)


def test_criterion_2_torus_knot_table():
    def body():
        disk = LensTorusKnot(7, 2, 1, 3)
        assert euler_characteristic(disk) == 1
        assert boundary_count(disk) == 1
        assert homological_order(disk) == 7
        annular = LensTorusKnot(4, 1, 2, 1)
        assert euler_characteristic(annular) == 0
        assert boundary_count(annular) == 2
        assert homological_order(annular) == 2
        assert boundary_wrap(annular) == 1
        twice = LensTorusKnot(8, 1, 2, 1)
        assert euler_characteristic(twice) == -2
        assert boundary_count(twice) == 2
        assert homological_order(twice) == 4
        assert boundary_wrap(twice) == 2

    elapsed = _timed(body, warmups=3)
    _report("2 (torus-knot invariant table)", elapsed, 0.001)


def test_criterion_3_hopf_delta():
    assert hopf_delta(2, -1, 1) == -2
    for p in range(-6, 7):
        for q in range(-6, 7):
            if p == 0 or p * q >= 0:
                continue
            for g in range(0, 5):
                if g == 0 and q == (-1 if p > 0 else 1):
                    continue
                assert (hopf_delta(p, q, g) == 0) == (abs(p) == 1)
    print("PASS  criterion 3 (Hopf invariant delta)", flush=True)


def test_criterion_4_resolution_golden_file():
    def body():
        left_trefoil = RationalOpenBook(
            genus=1,
            components=(BindingComponent(1, 0),),
            monodromy=TwistWord.twists(("c1", -1), ("c2", -1)),
        )
        surgered = induced_open_book_from_surgery(left_trefoil, 0, Slope(-5))
        comp = surgered.components[0]
        assert (comp.order, comp.seifert_numerator) == (5, -1)
        resolved = resolve(surgered, [0])
        assert (resolved.genus, resolved.boundary_count_of_page) == (1, 5)
        positives = [g for g in resolved.monodromy if g.sign > 0]
        negatives = [g for g in resolved.monodromy if g.sign < 0]
        assert len(positives) == 5 and all(g.curve.startswith("rb") for g in positives)
        assert len(negatives) == 2

    elapsed = _timed(body)
    _report("4 (lens space resolution golden file)", elapsed, 0.010)


def test_criterion_5_obstruction_all_p_to_100():
    def body():
        for p in range(1, 101):
            report = stein_obstruction_Lppm1(p)
            assert report.mod10_length == (p - 8) % 10
            assert report.required_mod10 == (p + 3) % 10
            assert report.obstructed

    elapsed = _timed(body)
    _report("5 (length obstruction for L(p,p-1), p = 1..100)", elapsed, 1.0)


def test_criterion_6_word_count_identities():
    for g in range(0, 6):
        for n in range(2, 7):
            book = RationalOpenBook(
                genus=g,
                components=tuple(BindingComponent(1, 0) for _ in range(n)),
                monodromy=TwistWord(()),
            )
            d = (2 * g + 2) + 2 * (n - 2)
            assert branch_point_count(g, n) == d
            for p in range(1, 6):
                cw = monodromy_p1_disconnected(book, p)
                assert len(cw.word) == d * (p - 1)
                assert cw.word.is_positive()
    for g in range(1, 6):
        book = RationalOpenBook(
            genus=g, components=(BindingComponent(1, 0),), monodromy=TwistWord(())
        )
        assert len(monodromy_22_connected(book).word) == 2 * g + 1
        block = garside_block(p1_layout(g, 1))
        assert len(block) == (2 * g + 1) * (4 * g + 1)
        for p in (2, 3):
            cw = monodromy_p1_connected(book, p)
            pos = sum(x.sign == 1 for x in cw.word)
            assert pos == (p - 1) * (2 * g + 1) * (4 * g + 1)
    print("PASS  criterion 6 (word-count identities)", flush=True)


def test_criterion_7_homology_oracle_suite():
    def body():
        # classic lantern on a four-holed sphere in a capped genus-3 model
        sys3, reg3 = lantern_genus3_model()
        rel = reg3.relations["lantern"]
        assert sys3.word_delta(rel.lhs) == sys3.word_delta(rel.rhs)
        # generalized lantern of the five-holed sphere
        regr = resolved_registry()
        gen = regr.relations["genlantern"]
        assert regr.system.word_delta(gen.lhs) == regr.system.word_delta(gen.rhs)
        # chain relation on the one-holed torus
        cm1 = chain_model(1)
        reg1 = RelationRegistry(cm1)
        reg1.register(
            "chain_g1",
            TwistWord.twists("bdry_1"),
            TwistWord.twists("c1", "c2").power(6),
        )
        # odd chain relation acts trivially on capped homology
        for g in range(1, 4):
            cm = chain_model(g, 2)
            w = TwistWord.twists(*[f"c{i}" for i in range(1, 2 * g + 2)])
            assert cm.word_matrix(w.power(2 * g + 2)) == identity_matrix(2 * g)

    elapsed = _timed(body)
    _report("7 (homology oracle relation suite)", elapsed, 1.0)


def test_criterion_8_script_replays():
    def body():
        stab = stabilization_bundle()
        result = stab.replay()
        assert len(result.log) == len(stab.script.steps)
        assert [g.curve for g in result.word] == [
            "delta3", "delta2", "delta1", "n1_1", "n1_2"
        ]
        neg = negative_cable_bundle()
        out = neg.replay()
        assert out.word.is_positive()
        assert len(out.word) == 18

    elapsed = _timed(body)
    _report("8 (script replays, oracle-verified)", elapsed, 1.0)


def test_criterion_9_farey_oracle_bound_12():
    t0 = time.perf_counter()
    graph = mediant_farey_graph(12)
    verts = sorted(graph, key=lambda s: (s.numerator, s.denominator))
    checked = 0
    for a, b in itertools.combinations(verts, 2):
        want = bfs_interval_path_length(graph, a, b)
        got = len(farey_shortest_path(a, b)) - 1
        assert got == want, (a, b, got, want)
        checked += 1
    elapsed = time.perf_counter() - t0
    print(f"PASS  criterion 9 (Farey BFS oracle, {len(verts)} slopes, "
          f"{checked} pairs, {elapsed:.2f} s, limit 10 s)", flush=True)
    assert elapsed < 10.0
