"""Cable monodromy words: counts, positivity, oracle coherence, obstruction."""

import json
import random
import re
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablekit.curves import (
    CurveInfo,
    CurveSystem,
    CurveSystemError,
    NonExpandableGeneratorError,
    UnresolvedCurveError,
    _apply_turn,
    algebraic_length,
    chain_classes,
    symplectic_pairing,
)
from cablekit.monodromy import (
    MonodromyError,
    ObstructionReport,
    _companion_images,
    _conjugate,
    _cover22_model,
    _e_chain,
    _nodule_block,
    _nodule_swap,
    _page,
    branch_point_count,
    cable_p1_system,
    compose_cobordism_word,
    garside_block,
    lift_to_nodule,
    monodromy_22_connected,
    monodromy_p1_connected,
    monodromy_p1_disconnected,
    monodromy_pq,
    negative_cable_word,
    p1_layout,
    rho_p1_rotation,
    sigma22_cover_system,
    stein_obstruction_Lppm1,
)
from cablekit.classify import CableCoefficients, cabled_page, resolve
from cablekit.library import shipped_scripts, sigma22_script_system
from cablekit.openbook import BindingComponent, RationalOpenBook, validate
from cablekit.rewrite import RelationRegistry, RewriteError, RewriteScript, Step, replay
from cablekit.words import DEHN, FRACTIONAL, STAB, Generator, TwistWord
from braid_reference import (
    BraidWord,
    braid_Bp,
    extract_transvection_class,
    garside_half_twist,
    lift_through_double_cover,
    r22_braid,
)
from cli_runner import run_main
from test_classify import lens_model_resolve
from test_words_curves import (
    _delta_power,
    _delta_product,
    _random_delta,
    chain_model,
    dense_extract_transvection_class,
    dense_word_matrix,
    identity_matrix,
    mat_mul,
    mat_vec,
    pairing_row,
    solve_integer_system,
    symplectic_inverse,
    transvection,
    turn_delta,
)


def connected_book(genus, word=None):
    return RationalOpenBook(
        genus=genus,
        components=(BindingComponent(1, 0),),
        monodromy=word,
    )


def _expand_to_nonseparating(word, sys_):
    """The word with each twist about a curve whose expansion is a chain of m
    curves replaced by the chain's power 2m + 2 spelled letter by letter
    (inverted for a negative twist): the reference for `algebraic_length`,
    which only counts m(2m + 2)."""
    out = []
    for gen in word:
        if gen.kind == DEHN and sys_.curve(gen.curve).nonseparating:
            out.append(gen)
            continue
        if gen.kind == DEHN and gen.curve in sys_.expansions:
            chain = sys_.expansions[gen.curve]
            expansion = TwistWord.twists(*chain).power(2 * len(chain) + 2)
            if gen.sign < 0:
                expansion = expansion.inverse()
            out.extend(_expand_to_nonseparating(expansion, sys_))
            continue
        raise NonExpandableGeneratorError(
            f"{gen} is not a nonseparating twist and has no registered factorization"
        )
    return TwistWord(tuple(out))


def system_value(sys_):
    """A curve system by value: what two builds of one page must share."""
    return (sys_.genus, sys_.boundary_labels, sys_.name, sys_.curves, sys_.intersections,
            sys_.expansions, sys_.rotation)


def rho22_names(g):
    """The rotation curves rho22_1..rho22_{2g+1} of the genus-g (2,2) page."""
    return tuple(f"rho22_{i}" for i in range(1, 2 * g + 2))


def disconnected_book(genus, n):
    return RationalOpenBook(
        genus=genus,
        components=tuple(BindingComponent(1, 0) for _ in range(n)),
        monodromy=TwistWord(()),
    )


class TestBranchPoints:
    def test_formula(self):
        assert branch_point_count(0, 2) == 2
        assert branch_point_count(1, 2) == 4
        assert branch_point_count(1, 3) == 6
        assert branch_point_count(2, 5) == 12

    def test_connected(self):
        for g in range(0, 5):
            assert branch_point_count(g, 1) == 2 * g + 1

    @pytest.mark.parametrize("g, n", [(1, 0), (-1, 2), (0, -3)])
    def test_refuses_a_negative_genus_or_no_boundary(self, g, n):
        with pytest.raises(MonodromyError, match="^need g >= 0 and n >= 1$"):
            branch_point_count(g, n)


class TestDisconnectedWord:
    def test_count_identity(self):
        for g in range(0, 6):
            for n in range(2, 7):
                for p in range(1, 6):
                    cw = monodromy_p1_disconnected(disconnected_book(g, n), p)
                    d = branch_point_count(g, n)
                    assert len(cw.word) == d * (p - 1)
                    assert cw.word.is_positive()

    def test_identity_monodromy_p1_trivial(self):
        cw = monodromy_p1_disconnected(disconnected_book(1, 2), 1)
        assert len(cw.word) == 0

    def test_page_data(self):
        cw = monodromy_p1_disconnected(disconnected_book(0, 2), 2)
        assert (cw.book.genus, cw.book.boundary_count_of_page) == (1, 2)

    def test_connected_routes_away(self):
        with pytest.raises(MonodromyError):
            monodromy_p1_disconnected(connected_book(1), 2)

    @pytest.mark.parametrize("p", [0, -2])
    def test_refuses_p_below_one(self, p):
        with pytest.raises(MonodromyError, match="^need p >= 1$"):
            monodromy_p1_disconnected(disconnected_book(1, 2), p)


class TestConnected22:
    def test_count_and_positivity(self):
        for g in range(1, 6):
            cw = monodromy_22_connected(connected_book(g, TwistWord(())))
            assert len(cw.word) == 2 * g + 1
            assert cw.word.is_positive()
            assert (cw.book.genus, cw.book.boundary_count_of_page) == (2 * g, 2)

    def test_disconnected_rejected(self):
        with pytest.raises(MonodromyError):
            monodromy_22_connected(disconnected_book(1, 2))

    def test_cover_system_builds_the_annulus(self):
        # the genus-0 (2,2)-cable page is an annulus: its chain curve and its
        # rotation curve are the core, of zero class, and the nodules are
        # disks with a boundary but no chain; the disk page's (2,2) and
        # cobordism words are built on that one system
        sys_ = sigma22_cover_system(0)
        assert (sys_.genus, sys_.boundary_labels) == (0, ("1", "2"))
        assert sys_.rotation == ((Generator.dehn_twist("rho22_1"),), {})
        assert sorted(sys_.curves) == ["bdry_1", "bdry_2", "e1", "partial1", "partial2",
                                       "rho22_1"]
        assert not any(info.support or info.nonseparating for info in sys_.curves.values())
        disk = connected_book(0, TwistWord(()))
        for cw in (monodromy_22_connected(disk),
                   compose_cobordism_word(TwistWord(()), TwistWord(()), disk)):
            assert system_value(cw.system) == system_value(sys_)
            assert cw.word == TwistWord.twists("rho22_1")
        assert (cw.book.genus, cw.book.boundary_count_of_page) == (0, 2)
        with pytest.raises(MonodromyError, match="g >= 0, got -1"):
            sigma22_cover_system(-1)

    def test_cover_system_built_once_per_genus(self):
        # each call builds a system of its own from the model, which is
        # built and checked once per genus
        _cover22_model.cache_clear()
        first = monodromy_22_connected(connected_book(2, TwistWord.twists("c1"))).system
        second = compose_cobordism_word(TwistWord.twists("c1"), TwistWord.twists("c2"),
                                        connected_book(2)).system
        assert _cover22_model.cache_info().misses == 1
        # the run is the model's, spelled once per genus: the same objects
        assert first is not second and first.rotation[0] is second.rotation[0]

    @pytest.mark.parametrize("g", range(7))
    def test_the_page_is_built_on_the_p1_model(self, g):
        # the covering chain e1..e{4g+1} is layout 1 of the (p,1) page, each
        # chain end is the (2,1) page's, and the rotation's turn is minus
        # layout 1's checked Garside block: I + R22 = -(I + H)
        sys_ = sigma22_cover_system(g)
        _, layout, half = _nodule_block(g)
        assert [sys_.curve(f"e{k}").support for k in range(1, 4 * g + 2)] == list(map(dict, layout))
        if g:
            p1 = cable_p1_system(g, 2)
            for i in (1, 2):
                assert sys_.curve(f"n{i}_{2 * g + 1}") == p1.curve(f"n{i}_{2 * g + 1}"), (g, i)
        assert dict(_cover22_model(g)[2]) == {t: (u, -s) for t, (u, s) in half}

    def test_a_cold_page_on_a_warm_genus_makes_no_pairing(self, monkeypatch):
        # _nodule_block pairs layout 1 once per genus; the (2,2) page reads
        # its checked classes and pairs nothing of its own, cold or warm
        import cablekit.monodromy

        calls = [0]

        def counting(u, v):
            calls[0] += 1
            return symplectic_pairing(u, v)

        monkeypatch.setattr(cablekit.monodromy, "symplectic_pairing", counting)
        for g in range(5):
            _nodule_block(g)
            _cover22_model.cache_clear()
            calls[0] = 0
            sigma22_cover_system(g)
            assert (calls[0], _cover22_model.cache_info().misses) == (0, 1), g

    def test_lifts_refuse_names_outside_the_system(self):
        # a name like "cusp" or "c²" is no curve of the page model and is
        # refused on every cable page, the disconnected one included
        for name in ("cusp", "c²"):
            book = connected_book(1, TwistWord.twists("c1", name))
            apart = disconnected_book(1, 2).with_monodromy(book.monodromy)
            for build in (lambda b: monodromy_pq(b, 2, 1), monodromy_22_connected,
                          lambda b: monodromy_p1_disconnected(apart, 2)):
                with pytest.raises(MonodromyError, match=f"^curve {name} has no nodule model$"):
                    build(book)


def full_surface_crossing_class(sys_, g, p, j):
    """Reference class of the crossing curve x_j: one exact solve over the
    whole surface, pairing -1 with n{j}_{2g}, +1 with n{j+1}_{2g} and 0 with
    every other even-chain curve of every nodule."""
    rows, rhs = [], []
    for i in range(1, p + 1):
        for k in range(1, 2 * g + 1):
            rows.append(pairing_row(sys_.curve(f"n{i}_{k}").homology))
            rhs.append(-1 if (i, k) == (j, 2 * g) else 1 if (i, k) == (j + 1, 2 * g) else 0)
    return solve_integer_system(rows, rhs)


def full_p1_table(g, p):
    """Reference: the geometric intersections of the (p,1) page's layout
    chains, every cross-nodule, nodule-boundary and crossing zero listed,
    keyed like CurveSystem.intersections."""
    table = {}

    def record(a, b, value):
        table[(a, b) if a <= b else (b, a)] = value

    for j in range(1, p):
        layout = p1_layout(g, j)
        for a_idx, a in enumerate(layout):
            for b in layout[a_idx + 1:]:
                record(a, b, 1 if layout.index(b) == a_idx + 1 else 0)
    for i in range(1, p + 1):
        for k in range(1, 2 * g + 2):
            record(f"partial{i}", f"n{i}_{k}", 0)
        for j in range(1, p):
            record(f"partial{i}", f"x{j}", 0)
        for i2 in range(i + 1, p + 1):
            record(f"partial{i}", f"partial{i2}", 0)
            for k in range(1, 2 * g + 2):
                for k2 in range(1, 2 * g + 2):
                    record(f"n{i}_{k}", f"n{i2}_{k2}", 0)
    return table


class TestP1RecordedTable:
    @pytest.mark.parametrize("g", range(1, 4))
    @pytest.mark.parametrize("p", range(1, 6))
    def test_groups_and_entries_answer_like_the_full_table(self, g, p):
        # the page records nothing, but its classes answer every entry of
        # the full table, the cross-nodule and crossing-curve/nodule-boundary
        # pairs included
        sys_ = cable_p1_system(g, p)
        sys_.intersections.update(full_p1_table(g, p))
        sys_.check()

    @pytest.mark.parametrize("g", range(1, 4))
    @pytest.mark.parametrize("p", range(2, 6))
    def test_crossing_curves_never_commute_with_nodule_boundaries(self, g, p):
        # x_j meets nodule j and nodule j+1, so it crosses both boundaries
        reg = RelationRegistry(cable_p1_system(g, p))
        script = RewriteScript("commute", (Step("commute", 0),))
        for j in range(1, p):
            for i in (j, j + 1):
                for word in (TwistWord.twists(f"x{j}", f"partial{i}"),
                             TwistWord.twists(f"partial{i}", f"x{j}")):
                    with pytest.raises(RewriteError, match="recorded intersection is None"):
                        replay(script, word, reg)

    def test_cable_pages_record_no_intersection(self):
        # only record_intersection fills a table, on pages closed by check();
        # the cable pages install checked model data and record nothing
        assert all(cable_p1_system(g, p).intersections == {}
                   for g in range(1, 4) for p in range(1, 6))
        assert all(sigma22_cover_system(g).intersections == {} for g in range(4))

    @pytest.mark.parametrize("g, p", [(1, 1000), (3, 100)])
    def test_table_and_classes_grow_linearly_in_p(self, g, p):
        sys_ = cable_p1_system(g, p)
        assert not sys_.intersections
        assert sum(len(info.support) for info in sys_.curves.values()) <= 6 * p * g
        assert set(sys_.expansions) == {f"partial{i}" for i in range(1, p + 1)}
        # each factorization is kept as its 2g-letter chain
        assert sum(len(chain) for chain in sys_.expansions.values()) <= 2 * p * g


def reference_cable_p1_system(g, p):
    """Reference: the (p,1) system with the whole-table check() and each
    nodule's chain relation checked on the oracle letter by letter; it holds
    no rotation, so it evaluates every letter."""
    sys_ = CurveSystem(genus=p * g, boundary_labels=("outer",), name=f"cable_p1_g{g}_p{p}")
    block = chain_classes(g)
    for i in range(1, p + 1):
        for k, v in enumerate(block, 1):
            sys_.add_curve(f"n{i}_{k}", {2 * g * (i - 1) + t: x for t, x in v.items()})
    for j in range(1, p):
        cls = {2 * g * (j - 1) + t: x for t, x in block[-1].items()}
        cls.update({2 * g * j + t: -x for t, x in block[-1].items()})
        sys_.add_curve(f"x{j}", cls)
    for i in range(1, p + 1):
        sys_.add_curve(f"partial{i}", {})
    sys_.add_boundary_curves()
    for j in range(1, p):
        layout = p1_layout(g, j)
        for a_idx, a in enumerate(layout):
            for b_idx in range(a_idx + 1, len(layout)):
                if not a_idx < 2 * g < b_idx:
                    sys_.record_intersection(a, layout[b_idx], int(b_idx == a_idx + 1))
    for i in range(1, p + 1):
        for k in range(1, 2 * g + 2):
            sys_.record_intersection(f"partial{i}", f"n{i}_{k}", 0)
    sys_.check()
    for i in range(1, p + 1):
        chain = tuple(f"n{i}_{k}" for k in range(1, 2 * g + 1))
        assert sys_.word_delta(TwistWord.twists(*chain).power(4 * g + 2)) == {}, (g, p, i)
        sys_.expansions[f"partial{i}"] = chain
    return sys_


def corrupt_crossing_class(corrupt, monkeypatch):
    """Make the model read v_{2g+1}, the class x1 is built from, as
    corrupt(v_{2g+1}); no other class of the (p,1) model changes."""
    import cablekit.monodromy

    def corrupted(g):
        classes = chain_classes(g)
        classes[-1] = corrupt(classes[-1])
        return classes

    monkeypatch.setattr(cablekit.monodromy, "chain_classes", corrupted)


def corrupt_swap(corrupt, monkeypatch):
    """Make the model read the half twist's closed form _nodule_swap(g) as
    corrupt(it)."""
    import cablekit.monodromy

    monkeypatch.setattr(cablekit.monodromy, "_nodule_swap", lambda g: corrupt(_nodule_swap(g)))


PAGES = {"half_twist": lambda g: cable_p1_system(g, 3), "rotation22": sigma22_cover_system}

MOVED_MIRROR = r"the half twist sends class \d+ to no \+-class \d+"
FLIPPED_SIGN = r"the half twist sends class \d+ to (no \+-class|the wrong sign of class) \d+"


def moved_mirrors(g):
    """The corruptions of the half twist's closed form that move one
    column's mirror entry by one row, one for each column."""
    n = 2 * g
    for t in range(2 * n):
        def moved(turn, t=t):
            turn[t] = ((t + n + 1) % (2 * n), -1)
            return turn

        yield moved


def flipped_signs(g):
    """The corruptions of the half twist's closed form that flip one
    column's sign, one for each column."""
    for t in range(4 * g):
        def flipped(turn, t=t):
            turn[t] = (turn[t][0], -turn[t][1])
            return turn

        yield flipped


def refused_on_page(g, page, message, tmp_path):
    """Both cable pages stand on the one half-twist check: a cold genus-g
    `page` of PAGES refuses the corrupted turn with `message`, a pattern for
    the whole message; on the (2,2) page, so does `compose-cobordism` (exit
    2, no stdout)."""
    _nodule_block.cache_clear()  # a call that raises is not cached
    _cover22_model.cache_clear()
    with pytest.raises(CurveSystemError, match=f"^{message}$"):
        PAGES[page](g)
    _nodule_block.cache_clear()
    _cover22_model.cache_clear()
    if page == "rotation22":
        book = tmp_path / "page.json"
        book.write_text(json.dumps(connected_book(g, TwistWord.twists("c1")).to_json()))
        word = tmp_path / "word.json"
        word.write_text(json.dumps(TwistWord.twists("c1").to_json()))
        code, out, err = run_main(["compose-cobordism", "--page", str(book), str(word), str(word)])
        assert (code, out) == (2, ""), g
        assert re.fullmatch(f"error: {message}\n", err), (g, err)


class TestNoduleBlock:
    """The chain relation and layout 1 are checked once per genus on the
    block, and each build installs translates of it; the reference checks
    the whole table and every nodule's chain relation on the oracle, and
    evaluates every block letter by letter."""

    @pytest.mark.parametrize("g", range(1, 9))
    def test_the_closed_form_is_the_letter_by_letter_block(self, g):
        # layout 1's Garside block and its inverse, evaluated letter by
        # letter on the genus-2g page of layout 1's classes, are both the
        # closed form, minus the swap of the two nodules: an involution
        turn = dict(_nodule_block(g)[2])
        n = 2 * g
        assert turn == {t: ((t + n) % (2 * n), -1) for t in range(2 * n)}
        ref, block = reference_cable_p1_system(g, 2), garside_block(p1_layout(g, 1))
        for word in (block, block.inverse()):
            assert ref.word_delta(word) == turn_delta(turn), (g, word[0])
        assert _delta_product(turn_delta(turn), turn_delta(turn)) == {}

    @pytest.mark.parametrize("g", range(1, 4))
    def test_a_closed_form_with_a_moved_mirror_is_refused(self, g, monkeypatch, tmp_path):
        # the runtime check: the closed form must send each layout class to
        # +- its mirror; moving one column's mirror entry by one row breaks it
        for moved in moved_mirrors(g):
            corrupt_swap(moved, monkeypatch)
            refused_on_page(g, "half_twist", MOVED_MIRROR, tmp_path)

    @pytest.mark.parametrize("g", range(1, 4))
    def test_a_closed_form_with_one_sign_flipped_is_refused(self, g, monkeypatch, tmp_path):
        # e_t -> +e_{t'} in place of -e_{t'} still sends a b-class to +- its
        # mirror; the neighbour pairing refuses it
        for flipped in flipped_signs(g):
            corrupt_swap(flipped, monkeypatch)
            refused_on_page(g, "half_twist", FLIPPED_SIGN, tmp_path)

    @pytest.mark.parametrize("page", ["half_twist", "rotation22"])
    @pytest.mark.parametrize("g", range(1, 4))
    def test_a_closed_form_of_the_other_sign_is_refused(self, g, page, monkeypatch, tmp_path):
        # the half twist keeps x1, and the swap of the other sign, which
        # reverses it, alternates its image signs from the wrong one; the
        # (2,2) page, built on the half twist, refuses it by the same check
        corrupt_swap(lambda turn: {t: (u, -s) for t, (u, s) in turn.items()}, monkeypatch)
        refused_on_page(
            g, page, f"the half twist sends class 1 to the wrong sign of class {4 * g + 1}",
            tmp_path)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_system_equals_the_reference_that_checks_every_nodule(self, g):
        # the rotation run, and its inverse for sign -1, is the reference
        # rotation word, and its turn that word evaluated letter by letter
        for p in range(1, 7):
            ref, rotation = reference_cable_p1_system(g, p), reference_rho_p1_rotation(g, p)
            for sign, run in ((1, rotation), (-1, rotation.inverse())):
                sys_ = cable_p1_system(g, p, sign)
                assert sys_.curves == ref.curves, (g, p)
                assert sys_.expansions == ref.expansions, (g, p)
                assert sys_.rotation[0] == run.generators, (g, p, sign)
                assert turn_delta(sys_.rotation[1]) == ref.word_delta(run), (g, p, sign)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_every_factorization_has_zero_delta_letter_by_letter(self, g):
        for p in range(1, 7):
            sys_ = cable_p1_system(g, p)
            for i in range(1, p + 1):
                chain = TwistWord.twists(*sys_.expansions[f"partial{i}"])
                assert len(chain) == 2 * g
                assert sys_.word_delta(chain.power(4 * g + 2)) == {}, (g, p, i)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_every_expansion_is_an_even_chain_its_curve_bounds(self, g):
        # algebraic_length counts an expansion of m curves as m(2m + 2)
        # positive twists on the strength of the chain relation, which needs
        # an even chain (neighbours pair to +-1, all other pairs to 0) of
        # curves of the system, about a zero-class curve, which pairs to 0
        # with every chain curve
        for p in range(1, 7):
            sys_ = cable_p1_system(g, p)
            assert set(sys_.expansions) == {f"partial{i}" for i in range(1, p + 1)}
            for name, chain in sys_.expansions.items():
                m = len(chain)
                assert m >= 2 and m % 2 == 0, (g, p, name)
                assert isinstance(chain, tuple) and all(isinstance(x, str) for x in chain)
                classes = [sys_.curve(x).support for x in chain]
                assert all(abs(symplectic_pairing(u, classes[j])) == (j == i + 1)
                           for i, u in enumerate(classes) for j in range(i + 1, m)), (g, p, name)
                assert not sys_.curve(name).support, (g, p, name)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_the_direct_install_holds_what_add_curve_would_refuse(self, g):
        # the build writes CurveInfos straight into `curves`, past the two
        # refusals of add_curve: a name declared twice and a coordinate
        # outside the surface
        for p in range(1, 7):
            sys_, ref = cable_p1_system(g, p), reference_cable_p1_system(g, p)
            assert len(sys_.curves) == p * (2 * g + 1) + (p - 1) + p + 1, (g, p)
            assert list(sys_.curves) == list(ref.curves), (g, p)
            for name, info in sys_.curves.items():
                coords = list(info.support)
                assert info.dim == sys_.dim and coords == sorted(coords), (g, p, name)
                assert all(0 <= t < sys_.dim and info.support[t] for t in coords), (g, p, name)
            assert (sys_.name, sys_.genus, sys_.boundary_labels) == (
                ref.name, ref.genus, ref.boundary_labels), (g, p)

    def test_a_p1_request_spells_its_rotation_once(self, monkeypatch):
        # the page spells its rotation run, and the request's word is built
        # on that run: one rotation word per (p,1) or negative cable request
        import cablekit.monodromy

        calls = []

        def counting(g, p, sign=1):
            calls.append((g, p, sign))
            return rho_p1_rotation(g, p, sign)

        monkeypatch.setattr(cablekit.monodromy, "rho_p1_rotation", counting)
        for g in range(1, 4):
            for p in range(1, 6):
                calls.clear()
                monodromy_p1_connected(connected_book(g, TwistWord.twists("c1")), p)
                assert calls == [(g, p, 1)], (g, p)
                calls.clear()
                negative_cable_word(RationalOpenBook(
                    genus=g, components=(BindingComponent(p + 1, -1),)))
                assert calls == [(g, p, -1)], (g, p)

    def test_one_chain_relation_per_genus(self, monkeypatch):
        # the chain word c1..c2g is the one word a cold build evaluates, once
        # per genus
        calls = []
        word_delta = CurveSystem.word_delta

        def counting(self, word):
            calls.append((self.name, len(word)))
            return word_delta(self, word)

        monkeypatch.setattr(CurveSystem, "word_delta", counting)
        _nodule_block.cache_clear()
        for g, p in [(2, 3), (2, 5), (2, 1), (3, 2), (3, 4)]:
            cable_p1_system(g, p)
        assert calls == [("nodule_g2", 2 * 2), ("nodule_g3", 2 * 3)]

    @pytest.mark.parametrize("g", range(1, 5))
    def test_every_system_passes_the_whole_table_check(self, g):
        # the build installs translates of the checked layout 1 in place of
        # check(); the reference's table, recorded on the build, passes it
        for p in range(1, 7):
            sys_ = cable_p1_system(g, p)
            sys_.intersections.update(reference_cable_p1_system(g, p).intersections)
            sys_.check()

    def test_pairings_are_made_once_per_genus(self, monkeypatch):
        # a cold genus pairs layout 1's classes; once the genus is cached a
        # build pairs nothing, whatever p: with x1's class corrupted after
        # the genus is cached, every build still installs the checked model
        _nodule_block.cache_clear()
        cable_p1_system(2, 2)
        corrupt_crossing_class(self.MISSING[0], monkeypatch)
        for p in (2, 50):
            assert cable_p1_system(2, p).curves == reference_cable_p1_system(2, p).curves, p
        assert _nodule_block.cache_info().misses == 1
        _nodule_block.cache_clear()
        with pytest.raises(CurveSystemError, match="^layout 1 records "):
            cable_p1_system(2, 2)

    # x1 is layout 1's class 2g (from 0), v_{2g+1} on nodule 1: at g = 2 it
    # loses its class, so it misses its neighbour pairing, or it gains b_1,
    # so it pairs with a_1, layout 1's class 0, no neighbour of it
    MISSING = (lambda v: {}, "^layout 1 records 3,4 = 1, but the classes differ$")
    WRONG = (lambda v: {1: 1, **v}, "^layout 1 records 0,4 = 0, but the classes differ$")

    def test_a_layout_template_that_fails_the_pairing_is_refused(self, monkeypatch):
        for corrupt, message in (self.MISSING, self.WRONG):
            corrupt_crossing_class(corrupt, monkeypatch)
            _nodule_block.cache_clear()  # a call that raises is not cached
            with pytest.raises(CurveSystemError, match=message):
                cable_p1_system(2, 3)

    @staticmethod
    def refuse_each(g, mutations, monkeypatch):
        """Each mutation of the companion images must fail the chain check."""
        import cablekit.monodromy

        for mutate in mutations:
            monkeypatch.setattr(cablekit.monodromy, "_companion_images",
                                lambda chain, mutate=mutate: mutate(_companion_images(chain)))
            _nodule_block.cache_clear()  # a call that raises is not cached
            with pytest.raises(CurveSystemError,
                               match=f"^the genus-{g} chain relation fails the homology oracle$"):
                cable_p1_system(g, 3)

    @pytest.mark.parametrize("g", range(1, 5))
    @pytest.mark.parametrize("miss", [-1, 1])
    def test_a_chain_relation_that_fails_the_oracle_is_refused(self, g, miss, monkeypatch):
        # the near misses v_k -> v_{k+1+miss} of the closed form's v_k ->
        # v_{k+1}: v_k fixed (k <= 2g), or v_k sent to v_{k+2} (k < 2g, v_{2g+1}
        # the crossing class), as the powers 4g+1 and 4g+3 miss 4g+2
        block = chain_classes(g)

        def near_miss(k):
            def mutate(images):
                images[k - 1] = block[k + miss]
                return images
            return mutate

        self.refuse_each(g, map(near_miss, range(1, 2 * g + (miss < 0))), monkeypatch)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_a_sign_flipped_in_the_last_image_is_refused(self, g, monkeypatch):
        # v_2g -> sum (-1)^k v_k with the sign of one entry flipped
        last = _companion_images(chain_classes(g)[:-1])[-1]
        assert len(last) == g + 1

        def flipped(t):
            def mutate(images):
                images[-1] = {**images[-1], t: -images[-1][t]}
                return images
            return mutate

        self.refuse_each(g, map(flipped, last), monkeypatch)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_every_single_entry_mutation_that_breaks_the_chain_is_refused(self, g, monkeypatch):
        # each entry of v_1..v_{2g+1}, over all 2g coordinates, moved by +1
        # and by -1: the genus model refuses exactly the mutations after which
        # some pair of classes no longer pairs as a chain (neighbours to +1,
        # others to 0), by the chain relation or by layout 1's pairings.  The
        # 2g it accepts send b_i to b_i +- a_i, a symplectic change of basis
        # that keeps every pairing: a chain model of its own
        refused, kept = [], []
        for k in range(2 * g + 1):
            for t in range(2 * g):
                for step in (1, -1):
                    v = {**chain_classes(g)[k]}
                    v[t] = v.get(t, 0) + step
                    v = {r: x for r, x in sorted(v.items()) if x}

                    def corrupted(g, k=k, v=v):
                        classes = chain_classes(g)
                        classes[k] = v
                        return classes

                    classes = corrupted(g)
                    chain = all(symplectic_pairing(a, classes[j]) == (j == i + 1)
                                for i, a in enumerate(classes) for j in range(i + 1, len(classes)))
                    monkeypatch.setattr("cablekit.monodromy.chain_classes", corrupted)
                    _nodule_block.cache_clear()  # a call that raises is not cached
                    try:
                        _nodule_block(g)
                    except CurveSystemError:
                        refused.append(chain)
                    else:
                        kept.append((k + 1, t, step, chain))
        assert len(refused) == 2 * (2 * g + 1) * 2 * g - 2 * g and not any(refused)
        assert kept == [(2 * i, 2 * i - 2, step, True)
                        for i in range(1, g + 1) for step in (1, -1)]


def counting_turns(monkeypatch):
    """Patch the oracle's turn kernel to count its calls in the one-entry
    list returned."""
    import cablekit.curves

    applied, kernel = [0], cablekit.curves._apply_turn

    def counting(delta, turn):
        applied[0] += 1
        return kernel(delta, turn)

    monkeypatch.setattr(cablekit.curves, "_apply_turn", counting)
    return applied


def without_rotation(sys_):
    """The slow reference: `sys_`'s curves on a system of its own whose
    `rotation` is None, so word_delta evaluates every letter."""
    slow = CurveSystem(sys_.genus, sys_.boundary_labels, sys_.name)
    slow.curves.update(sys_.curves)
    return slow


PHI = TwistWord.twists("c1", ("c2", -1), "c1", ("bdry_1", -1))
# (builder, where the page's run starts in its word): the negative cable word
# opens with its fractional boundary twist
CABLE_BUILDERS = {
    "(p,1)": (lambda g, p: monodromy_p1_connected(connected_book(g, PHI), p), 0),
    "negative cable": (lambda g, p: negative_cable_word(RationalOpenBook(
        genus=g, components=(BindingComponent(p + 1, -1),), monodromy=PHI)), 1),
    "(2,2)": (lambda g, p: monodromy_22_connected(connected_book(g, PHI)), 0),
    "cobordism": (lambda g, p: compose_cobordism_word(PHI, PHI, connected_book(g)), 0),
}
CABLE_CELLS = [(1, 2), (2, 3), (3, 5), (1, 6)]


class TestRotationFastPath:
    """word_delta applies a cable page's rotation run as its stored turn
    wherever a word spells the run out; the slow reference is the same page
    with `rotation` None, which evaluates every letter, and the dense
    letter-by-letter product."""

    @staticmethod
    def words(g, p, rng):
        """(name, sign of the page, word, turns the fast path applies) for
        the rotation, its compositions with a lift of a random page word, its
        powers, the inverse on either page, the negative cable word, and runs
        cut short, holding a foreign letter, one curve changed or one
        letter's sign flipped, which are evaluated letter by letter."""
        rotation = rho_p1_rotation(g, p)
        page = TwistWord.twists(*((f"c{rng.randrange(1, 2 * g + 2)}", rng.choice([1, -1]))
                                  for _ in range(8)), ("bdry_1", -1))
        phi = lift_to_nodule(page, [f"n1_{k}" for k in range(1, 2 * g + 2)], "partial1")
        book = RationalOpenBook(genus=g, components=(BindingComponent(p + 1, -1),),
                                monodromy=page)
        n, inverse = int(p > 1), rotation.inverse()  # the run is empty at p = 1
        out = [("rotation", 1, rotation, n), ("rotation o phi", 1, rotation.compose(phi), n),
               ("phi o rotation", 1, phi.compose(rotation), n),
               ("rotation^2", 1, rotation.power(2), 2 * n),
               ("rotation^3", 1, rotation.power(3), 3 * n),
               ("inverse", 1, inverse, 0), ("inverse", -1, inverse, n),
               ("inverse^2", -1, inverse.power(2), 2 * n),
               ("rotation o inverse", 1, rotation.compose(inverse), n),
               ("rotation o inverse", -1, rotation.compose(inverse), n),
               ("negative cable word", -1, negative_cable_word(book).word, n)]
        for sign, run in ((1, rotation.generators), (-1, inverse.generators)) if n else ():
            inside = rng.randrange(1, len(run))
            foreign = Generator.dehn_twist(rng.choice(["n1_1", "x1", f"n{p}_1"]), sign)
            other = "x1" if run[inside].curve != "x1" else "n1_1"
            out += [("cut short", sign, TwistWord(run[:-rng.randrange(1, len(run))]), 0),
                    ("first letter only", sign, TwistWord(run[:1]), 0),
                    ("foreign letter", sign,
                     TwistWord(run[:inside] + (foreign,) + run[inside:]), 0),
                    ("curve changed", sign, TwistWord(
                        run[:inside] + (Generator.dehn_twist(other, run[inside].sign),)
                        + run[inside + 1:]), 0),
                    ("sign flipped", sign,
                     TwistWord(run[:inside] + (run[inside].inverse(),) + run[inside + 1:]), 0)]
        return out

    @pytest.mark.parametrize("g", range(1, 5))
    def test_matches_the_letter_by_letter_oracle(self, g, monkeypatch):
        applied = counting_turns(monkeypatch)
        rng = random.Random(g)
        for p in range(1, 7):
            pages = {sign: cable_p1_system(g, p, sign) for sign in (1, -1)}
            slow = without_rotation(pages[1])
            for name, sign, word, turns in self.words(g, p, rng):
                applied[0] = 0
                want = slow.word_delta(word)
                assert applied[0] == 0
                assert pages[sign].word_delta(word) == want, (g, p, sign, name)
                assert applied[0] == turns, (g, p, sign, name)
                if g * p <= 4:
                    assert pages[sign].word_matrix(word) == dense_word_matrix(slow, word), (
                        g, p, sign, name)

    @pytest.mark.parametrize("build", CABLE_BUILDERS.values(), ids=CABLE_BUILDERS.keys())
    def test_each_word_starts_with_its_page_run_and_takes_one_turn(self, build, monkeypatch):
        # the word's leading letters are the run's very objects, and a JSON
        # round trip, whose letters are objects of their own, takes the same
        # single turn, compared field by field
        make, start = build
        applied = counting_turns(monkeypatch)
        for g, p in CABLE_CELLS:
            cw = make(g, p)
            run = cw.system.rotation[0]
            assert run and all(x is y for x, y in zip(cw.word[start:start + len(run)], run,
                                                      strict=True)), (g, p)
            loaded = TwistWord.from_json(json.loads(json.dumps(cw.word.to_json())))
            assert loaded == cw.word and loaded[start] is not run[0]
            want = without_rotation(cw.system).word_delta(cw.word)
            for word in (cw.word, loaded):
                applied[0] = 0
                assert cw.system.word_delta(word) == want, (g, p)
                assert applied[0] == 1, (g, p)

    @pytest.mark.parametrize("build", CABLE_BUILDERS.values(), ids=CABLE_BUILDERS.keys())
    def test_a_spoiled_run_is_evaluated_letter_by_letter(self, build, monkeypatch):
        # one letter's sign flipped, one curve changed or the run cut short:
        # no turn applies, and the delta is the reference's
        make, start = build
        applied = counting_turns(monkeypatch)
        rng = random.Random(39)
        for g, p in CABLE_CELLS:
            cw = make(g, p)
            sys_, gens = cw.system, cw.word.generators
            end = start + len(sys_.rotation[0])
            for i in (start, rng.randrange(start, end), end - 1):
                other = next(c for c, info in sys_.curves.items()
                             if info.support and c != gens[i].curve)
                spoiled = {
                    "sign flipped": gens[:i] + (gens[i].inverse(),) + gens[i + 1:],
                    "curve changed":
                        gens[:i] + (Generator.dehn_twist(other, gens[i].sign),) + gens[i + 1:],
                    "cut short": gens[:i] + gens[end:],
                }
                for name, letters in spoiled.items():
                    word = TwistWord(letters)
                    applied[0] = 0
                    assert sys_.word_delta(word) == without_rotation(sys_).word_delta(word), (
                        g, p, i, name)
                    assert applied[0] == 0, (g, p, i, name)

    def test_a_p1_page_holds_the_empty_run(self, monkeypatch):
        applied = counting_turns(monkeypatch)
        for g in range(1, 4):
            assert cable_p1_system(g, 1).rotation == cable_p1_system(g, 1, -1).rotation == ((), {})
            cw = monodromy_p1_connected(connected_book(g, PHI), 1)
            assert cw.system.rotation == ((), {})
            assert cw.system.word_delta(cw.word) == without_rotation(cw.system).word_delta(cw.word)
        assert applied[0] == 0

    @pytest.mark.parametrize("g", range(1, 9))
    def test_the_block_delta_is_the_dense_product(self, g):
        # layout 1's checked turn, the whole rotation turn of a (2,1) page,
        # against the dense product of the Garside block's letters and of its
        # inverse's on that page
        sys_, turn = cable_p1_system(g, 2), dict(_nodule_block(g)[2])
        assert sys_.rotation[1] == turn
        block = garside_block(p1_layout(g, 1))
        for word in (block, block.inverse()):
            want = {}
            for i, row in enumerate(dense_word_matrix(sys_, word)):
                for j, x in enumerate(row):
                    if x != (i == j):
                        want.setdefault(j, {})[i] = x - (i == j)
            assert turn_delta(turn) == want, (g, word[0])
            assert len(turn) == 4 * g and sum(map(len, want.values())) == 8 * g

    def test_a_turn_rewrites_only_its_own_columns(self):
        # the size rule: a turn costs its own columns, not the running
        # delta's; the kernel writes into the running delta itself, and the
        # columns outside the turn stay the same objects.  Layout 3's block,
        # layout 1's turn moved by 2g(3-1), after the rotation of a (5,1) page
        sys_ = cable_p1_system(2, 5)
        rotation = TwistWord(sys_.rotation[0])
        turn = {t + 8: (u + 8, s) for t, (u, s) in _nodule_block(2)[2]}
        delta = sys_.word_delta(rotation)
        before = dict(delta)
        assert before.keys() - turn.keys()
        assert _apply_turn(delta, turn) is None
        assert all(delta[j] is col for j, col in before.items() if j not in turn)
        # the same exact value as the block's letters evaluated after the rotation's
        block = garside_block(p1_layout(2, 3))
        assert delta == without_rotation(sys_).word_delta(rotation.compose(block))

    def test_the_rotation_at_p_1000_matches_the_letter_by_letter_oracle(self):
        sys_ = cable_p1_system(1, 1000)
        rotation = TwistWord(sys_.rotation[0])
        assert sys_.word_delta(rotation) == without_rotation(sys_).word_delta(rotation)

    def test_an_unknown_curve_after_a_block_raises_in_letter_order(self):
        sys_ = cable_p1_system(2, 3)
        word = rho_p1_rotation(2, 3).compose(TwistWord.twists("zzz", "yyy"))
        with pytest.raises(UnresolvedCurveError, match="curve 'zzz' not in system"):
            sys_.word_delta(word)


class TestRotation22Block:
    """word_delta applies the (2,2) rotation run as the turn stored in the
    page's `rotation`, the checked half twist with every sign negated; the
    slow reference is the same page with `rotation` None, which evaluates
    every letter."""

    @pytest.mark.parametrize("g", range(7))
    def test_the_closed_form_is_the_letter_by_letter_rotation(self, g):
        # plus the swap of the two nodules, an involution, so the run and its
        # inverse share one delta
        sys_ = sigma22_cover_system(g)
        slow = without_rotation(sys_)
        rotation = TwistWord.twists(*reversed(rho22_names(g)))
        run, turn = sys_.rotation
        assert turn == {t: ((t + 2 * g) % (4 * g), 1) for t in range(4 * g)}
        assert slow.word_delta(rotation) == slow.word_delta(rotation.inverse()) == turn_delta(turn)
        assert run == rotation.generators

    @pytest.mark.parametrize("g", range(1, 4))
    def test_a_closed_form_with_one_sign_flipped_is_refused(self, g, monkeypatch, tmp_path):
        # the (2,2) turn is derived from the half twist's closed form, so a
        # flipped sign there is refused on this page, and by
        # compose-cobordism, with the half twist's message
        for flipped in flipped_signs(g):
            corrupt_swap(flipped, monkeypatch)
            refused_on_page(g, "rotation22", FLIPPED_SIGN, tmp_path)

    @pytest.mark.parametrize("g", range(1, 4))
    def test_a_closed_form_with_a_moved_mirror_is_refused(self, g, monkeypatch, tmp_path):
        # as above, for a mirror entry moved by one row
        for moved in moved_mirrors(g):
            corrupt_swap(moved, monkeypatch)
            refused_on_page(g, "rotation22", MOVED_MIRROR, tmp_path)

    @pytest.mark.parametrize("g", range(5))
    def test_matches_the_letter_by_letter_oracle(self, g, monkeypatch):
        # random words of rotations, inverses and letters about every curve
        # of the page, single rotation letters of either sign included
        applied = counting_turns(monkeypatch)
        rng = random.Random(22 + g)
        sys_ = sigma22_cover_system(g)
        slow = without_rotation(sys_)
        rotation = TwistWord(sys_.rotation[0])
        names = sorted(sys_.curves)
        for _ in range(40):
            pieces = [rng.choice([rotation, rotation.inverse(), TwistWord.twists(
                *((rng.choice(names), rng.choice([1, -1])) for _ in range(rng.randrange(1, 6))))])
                for _ in range(rng.randrange(1, 7))]
            word = TwistWord(tuple(x for piece in pieces for x in piece))
            runs = sum(piece == rotation for piece in pieces)
            applied[0] = 0
            want = slow.word_delta(word)
            assert applied[0] == 0
            assert sys_.word_delta(word) == want, (g, word)
            assert applied[0] >= runs, (g, word)
            if g <= 2:
                assert sys_.word_matrix(word) == dense_word_matrix(sys_, word), (g, word)


def charpoly(a):
    """det(tI - a), leading coefficient first, by Faddeev-LeVerrier in
    integers: M_1 = I, c_k = -tr(a M_k)/k, M_{k+1} = a M_k + c_k I, and each
    division is exact, as the c_k are integers."""
    n, coeffs, mk = len(a), [1], identity_matrix(len(a))
    for k in range(1, n + 1):
        am = mat_mul(a, mk)
        c, rest = divmod(-sum(am[i][i] for i in range(n)), k)
        assert rest == 0, (k, rest)
        coeffs.append(c)
        mk = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am)]
    return coeffs


def at_power(coeffs, p):
    """The polynomial f(t^p), for f's coefficients, leading first."""
    out = [0] * ((len(coeffs) - 1) * p + 1)
    out[::p] = coeffs
    return out


class TestCablingCharpoly:
    """The slow reference of the cabling formula on homology: the cable
    word's matrix M has charpoly(M)(t) = charpoly(M_phi)(t^p), the rotation
    permuting p nodules with phi on one of them, for (p,1) words; t^2 for
    (2,2) words, and for cobordism words with M_phi1 M_phi2 in place of M_phi
    (either order has that charpoly).  Each word is evaluated through the
    page's turn and with `rotation` None, and the two must agree.  The charpoly
    is invariant under conjugation, so it is blind to where the lift sits: in
    30 random (p,1) books with p >= 2 it caught a dropped Garside letter in
    23, but a lift onto nodule 2 or placed before the rotation in none."""

    @staticmethod
    def page_word(rng, g):
        names = [f"c{k}" for k in range(1, 2 * g + 2)] + ["bdry_1"] if g else ["bdry_1"]
        return TwistWord.twists(*((rng.choice(names), rng.choice([1, -1])) for _ in range(6)))

    @staticmethod
    def holds(cw, m_phi, p):
        fast = cw.system.word_matrix(cw.word)
        assert fast == without_rotation(cw.system).word_matrix(cw.word)
        return charpoly(fast) == at_power(charpoly(m_phi), p)

    def test_p1_words(self):
        rng = random.Random(40)
        for _ in range(40):
            g, p = rng.choice([(g, p) for g in (1, 2) for p in (1, 2, 3)])
            phi = self.page_word(rng, g)
            cw = monodromy_p1_connected(connected_book(g, phi), p)
            assert self.holds(cw, chain_model(g).word_matrix(phi), p), (g, p, phi)

    def test_22_and_cobordism_words(self):
        rng = random.Random(22)
        for _ in range(40):
            g = rng.randrange(3)
            phi1, phi2 = self.page_word(rng, g), self.page_word(rng, g)
            cw = monodromy_22_connected(connected_book(g, phi1))
            assert self.holds(cw, chain_model(g).word_matrix(phi1), 2), (g, phi1)
            cw = compose_cobordism_word(phi1, phi2, connected_book(g))
            assert self.holds(cw, chain_model(g).word_matrix(phi1.compose(phi2)), 2), (
                g, phi1, phi2)


def band_lifts(g):
    """For i = 1..2g+1, the lift of the conjugated band d1 s_{i,2g+1+i} d1^-1
    through the double cover onto the chain e1..e{4g+1}."""
    n = 4 * g + 2
    chain = [f"e{k}" for k in range(1, n)]
    d1 = garside_half_twist(n, 1, 2 * g + 1)
    return [
        lift_through_double_cover(d1 * BraidWord.from_pairs(n, [(i, 2 * g + 1 + i, 1)])
                                  * d1.inverse(), chain)
        for i in range(1, 2 * g + 2)
    ]


class TestBandLiftExtraction:
    """The braid lift is the reference for the closed-form rotation curves:
    each class and the rotation word are checked against it
    (`test_braids.TestR22` checks that the two factorizations agree)."""

    @pytest.mark.parametrize("g", range(1, 4))
    def test_delta_extraction_matches_dense_extraction(self, g):
        sys_ = sigma22_cover_system(g)
        for lift in band_lifts(g):
            support, sign = extract_transvection_class(sys_.word_delta(lift))
            cls = tuple(support.get(t, 0) for t in range(sys_.dim))
            assert (cls, sign) == dense_extract_transvection_class(dense_word_matrix(sys_, lift))

    @pytest.mark.parametrize("g", range(11))
    def test_closed_form_classes_match_band_lifts(self, g):
        sys_, rho_names = sigma22_cover_system(g), rho22_names(g)
        for name, lift in zip(rho_names, band_lifts(g), strict=True):
            delta = sys_.word_delta(lift)
            # at g = 0 the band lifts to a twist about the annulus core
            expected = extract_transvection_class(delta) if delta else ({}, 1)
            assert expected == (sys_.curve(name).support, 1), name

    @pytest.mark.parametrize("g", range(11))
    def test_rotation_word_is_the_lift_of_both_factorizations(self, g):
        sys_, rho_names = sigma22_cover_system(g), rho22_names(g)
        chain = [f"e{k}" for k in range(1, 4 * g + 2)]
        rotation = sys_.word_delta(TwistWord.twists(*reversed(rho_names)))
        # the half-twist form and the conjugated band form of the rotation braid
        d1 = garside_half_twist(4 * g + 2, 1, 2 * g + 1)
        for braid in (r22_braid(g), d1 * braid_Bp(2 * g + 1, 2) * d1.inverse()):
            assert sys_.word_delta(lift_through_double_cover(braid, chain)) == rotation


class TestConnectedP1:
    @pytest.mark.parametrize("g", range(1, 5))
    def test_crossing_classes_match_full_surface_solve(self, g):
        for p in range(2, 6):
            sys_ = cable_p1_system(g, p)
            for j in range(1, p):
                assert sys_.curve(f"x{j}").homology == full_surface_crossing_class(
                    sys_, g, p, j), (g, p, j)

    def test_counts(self):
        for g in range(1, 6):
            for p in range(2, 6):
                cw = monodromy_p1_connected(connected_book(g, TwistWord(())), p)
                d = 2 * g + 1
                negatives = [x for x in cw.word if x.sign < 0]
                positives = [x for x in cw.word if x.sign > 0]
                assert len(negatives) == 2 * (p - 1)
                assert all(x.curve.startswith("partial") for x in negatives)
                assert len(positives) == (p - 1) * d * (2 * d - 1)

    def test_p1_is_lift_only(self):
        word = TwistWord.twists("c1", "c2")
        cw = monodromy_p1_connected(connected_book(1, word), 1)
        assert [x.curve for x in cw.word] == ["n1_1", "n1_2"]
        # the page is the bare cabled page, as for every other p
        assert cw.book.monodromy is None
        assert system_value(cw.system) == system_value(cable_p1_system(1, 1))

    def test_page_data(self):
        cw = monodromy_p1_connected(connected_book(1, TwistWord(())), 2)
        assert (cw.book.genus, cw.book.boundary_count_of_page) == (2, 1)


FRESH_BUILDS = {
    "cable_p1_system": lambda: cable_p1_system(2, 3),
    "sigma22_cover_system": lambda: sigma22_cover_system(2),
    "(3,1)": lambda: monodromy_pq(connected_book(1, TwistWord.twists("c1")), 3, 1).system,
    "(2,2)": lambda: monodromy_pq(connected_book(1, TwistWord.twists("c1")), 2, 2).system,
    "(3,4)": lambda: monodromy_pq(connected_book(1, TwistWord.twists("c1")), 3, 4).system,
    "(2,-1)": lambda: monodromy_pq(
        RationalOpenBook(genus=1, components=(BindingComponent(3, -1),)), 2, -1).system,
}


class TestFreshSystems:
    """Only checked model data is cached: every call builds a system of the
    caller's own, and a change to it reaches no later call."""

    @pytest.mark.parametrize("build", FRESH_BUILDS.values(), ids=FRESH_BUILDS.keys())
    def test_each_call_returns_a_fresh_system(self, build):
        first, second = build(), build()
        assert first is not second
        assert system_value(first) == system_value(second)
        first.add_curve("stray", {})
        first.record_intersection("stray", next(iter(second.curves)), 0)
        first.expansions["stray"] = ()
        assert system_value(build()) == system_value(second)

    def test_the_caches_hold_tuples_and_frozen_values(self):
        def frozen(x):
            return (isinstance(x, (int, str, CurveInfo, Generator))
                    or isinstance(x, tuple) and all(map(frozen, x)))

        for g in range(4):
            assert frozen(_cover22_model(g)) and (g == 0 or frozen(_nodule_block(g))), g


class TestPq:
    def test_marker_counts(self):
        book = connected_book(1, TwistWord(()))
        assert sum(x.kind == STAB for x in monodromy_pq(book, 3, 4).word) == 6
        assert sum(x.kind == STAB for x in monodromy_pq(book, 3, 1).word) == 0
        # a connected (2,2) is the rotation word, not (2,1) plus a marker
        assert monodromy_pq(book, 2, 2).word == monodromy_22_connected(book).word
        apart = disconnected_book(1, 2)
        assert sum(x.kind == STAB for x in monodromy_pq(apart, 2, 2).word) == 1

    def test_negative_rejected(self):
        with pytest.raises(MonodromyError):
            monodromy_pq(connected_book(1, TwistWord(())), 2, -1)

    def test_page_data_updates(self):
        book = connected_book(1, TwistWord(()))
        cw = monodromy_pq(book, 2, 2)
        assert (cw.book.genus, cw.book.boundary_count_of_page) == (2, 2)

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 2]), k=st.integers(-4, 4), p=st.integers(1, 3),
           q=st.integers(-2, 4))
    def test_pairs_are_read_in_the_book_framing(self, n, k, p, q):
        # monodromy_pq reads (p, q + k p) on a book reframed by k as (p, q) on
        # the window book: the same word and page, or the same refusal
        word = TwistWord.twists("c1", ("c2", -1))
        window = RationalOpenBook(genus=1, components=(BindingComponent(1, 0),) * n,
                                  monodromy=word)
        framed = RationalOpenBook(genus=1, components=(BindingComponent(1, k),) * n,
                                  monodromy=word)

        def answer(book, q):
            try:
                cw = monodromy_pq(book, p, q)
            except ValueError as exc:
                return str(exc)
            return cw.word, cw.book

        assert answer(framed, q + k * p) == answer(window, q)

    def test_fixed_pair_builders_read_the_window(self):
        # the fixed-pair builders take their pair in the page framing,
        # whatever framing the book is written in: the page is `cabled_page`
        # of the window book, for (p,1), (2,2) and (p,q), each component
        # read in its own framing
        word = TwistWord.twists("c1", ("c2", -1))
        window = connected_book(1, word)
        apart = disconnected_book(1, 2).with_monodromy(word)

        def page(book, p, q):
            return cabled_page(book, CableCoefficients(((p, q),) * len(book.components)))

        for k in (-4, 3):
            framed = RationalOpenBook(genus=1, components=(BindingComponent(1, k),),
                                      monodromy=word)
            a, b = monodromy_22_connected(framed), monodromy_22_connected(window)
            assert (a.word, a.book) == (b.word, b.book), k
            assert a.book == page(window, 2, 2), k
            for p in (2, 3):
                assert monodromy_p1_connected(framed, p).book == page(window, p, 1), (k, p)
            for p, q in ((2, 3), (3, 4), (3, 1)):
                assert _page(framed, p, q) == page(window, p, q), (k, p, q)
            two = RationalOpenBook(genus=1, components=(BindingComponent(1, k),
                                                        BindingComponent(1, -k - 1)),
                                   monodromy=word)
            for p in (2, 3):
                assert monodromy_p1_disconnected(two, p).book == page(apart, p, 1), (k, p)
                assert _page(two, p, 2) == page(apart, p, 2), (k, p)


class TestOracleCoherence:
    def test_22_equals_21_plus_script_after_destabilization_basis_change(self):
        # route A: the (2,2)-cable word on the cover system; route B: the
        # stabilized (2,1)-cable word pushed through the shipped script.
        # The (2,2) page is built on the (2,1) page's layout, so the
        # destabilization change of basis is the identity.
        book = connected_book(1, TwistWord.twists("c1", "c2"))
        route_a = monodromy_22_connected(book)
        assert route_a.system is not None
        m_a = route_a.system.word_matrix(route_a.word)

        bundle = shipped_scripts()["stabilize_21_to_22"]
        result = bundle.replay()
        sys_b = bundle.registry.system
        m_b = sys_b.word_matrix(result.word)

        assert m_a == m_b

    def test_start_and_final_words_agree_on_homology(self):
        bundle = shipped_scripts()["stabilize_21_to_22"]
        sys_ = bundle.registry.system
        assert sys_.word_matrix(bundle.start) == sys_.word_matrix(bundle.expect)


class TestSymplecticInverse:
    def test_inverts_chain_model_words(self):
        rng = random.Random(20101978)
        for g in range(1, 5):
            cm = chain_model(g)
            names = [f"c{i}" for i in range(1, 2 * g + 2)]
            for length in (0, 1, 5, 20):
                w = TwistWord.twists(
                    *[(rng.choice(names), rng.choice([1, -1])) for _ in range(length)]
                )
                m = cm.word_matrix(w)
                assert mat_mul(m, symplectic_inverse(m)) == identity_matrix(2 * g)
                assert symplectic_inverse(m) == cm.word_matrix(w.inverse())

    def test_inverts_22_rotations(self):
        for g in range(1, 5):
            cw = monodromy_22_connected(connected_book(g, TwistWord(())))
            m = cw.system.word_matrix(cw.word)
            assert mat_mul(m, symplectic_inverse(m)) == identity_matrix(4 * g)


class TestNegativeCable:
    def make_pattern(self, r, extra=2):
        gens = [Generator.fractional_boundary("1", Fraction(1, r))]
        gens += [Generator.dehn_twist("bdry_1")] * extra
        return RationalOpenBook(
            genus=1,
            components=(BindingComponent(r, -1),),
            monodromy=TwistWord(tuple(gens)),
        )

    def test_r3_shape(self):
        cw = negative_cable_word(self.make_pattern(3))
        # delta_{1/3} + inverse rotation (17) + partial1^{-1} + lifted phi (2)
        assert len(cw.word) == 1 + 17 + 1 + 2
        assert cw.word[0].kind == "fractional"
        assert cw.word[0].amount == Fraction(1, 3)
        comp = cw.book.components[0]
        assert (comp.order, comp.seifert_numerator) == (3, -1)
        assert cw.book.genus == 2

    def test_r2_boundary_power_vanishes(self):
        cw = negative_cable_word(self.make_pattern(2))
        # r = 2: rotation of the (1,1)-cable is empty and partial1^0 vanishes
        assert len(cw.word) == 1 + 0 + 0 + 2

    def test_wrong_form_rejected(self):
        book = RationalOpenBook(genus=1, components=(BindingComponent(3, -2),))
        with pytest.raises(MonodromyError):
            negative_cable_word(book)

    def test_every_r_carries_the_p1_system_of_the_inverse_rotation(self):
        for r in (2, 3, 4):
            cw = negative_cable_word(self.make_pattern(r))
            assert system_value(cw.system) == system_value(cable_p1_system(1, r - 1, -1))
            cw.system.word_delta(cw.word)

    def test_genus_0_is_refused_for_every_r(self):
        for r in (2, 3):
            disk = RationalOpenBook(genus=0, components=(BindingComponent(r, -1),))
            with pytest.raises(MonodromyError,
                               match="^disk and annulus pages have no chain model here$"):
                negative_cable_word(disk)


class TestResolutionWord:
    """The boundary-multitwist word of `resolve` on (r, -1)-books, l = 0 in
    the window."""

    def test_fig_lens_space_golden(self):
        # left trefoil book, -5 surgery, (5,0)-resolution: five positive
        # boundary twists and the two original negative twists
        from cablekit.classify import induced_open_book_from_surgery
        from cablekit.slopes import Slope

        trefoil = connected_book(1, TwistWord.twists(("c1", -1), ("c2", -1)))
        surgered = induced_open_book_from_surgery(trefoil, 0, Slope(-5))
        resolved = resolve(surgered, [0])
        assert (resolved.genus, resolved.boundary_count_of_page) == (1, 5)
        assert sum(x.sign == -1 for x in resolved.monodromy) == 2
        assert sum(x.sign == 1 for x in resolved.monodromy) == 5
        assert [g.curve for g in resolved.monodromy if g.sign > 0] == [
            f"rb0_{k}" for k in range(1, 6)
        ]

    def test_integral_component_untouched(self):
        book = RationalOpenBook(
            genus=1,
            components=(BindingComponent(1, 0),),
            monodromy=TwistWord.twists("c1"),
        )
        assert resolve(book, []).monodromy == book.monodromy

    def test_only_r_minus_1_components_with_a_word_resolve(self):
        pattern = TestNegativeCable().make_pattern(3)
        for book in (pattern.with_monodromy(None),
                     RationalOpenBook(genus=1, components=(BindingComponent(3, -2),),
                                      monodromy=TwistWord.twists("c1"))):
            assert resolve(book, [0]).monodromy is None

    def test_reframed_book_resolves_to_the_same_word(self):
        # (3, 2) is the (3, -1) component reframed by 1, which reads l = 0
        # of the window as 3
        pattern = TestNegativeCable().make_pattern(3)
        framed = RationalOpenBook(genus=1, components=(BindingComponent(3, 2),),
                                  monodromy=pattern.monodromy)
        a, b = resolve(framed, [3]), resolve(pattern, [0])
        assert (a.monodromy, a.genus) == (b.monodromy, b.genus)

    def test_chi_matches_resolve(self):
        # the (3, 0)-resolution of a (3, -1) component takes (r - 1)(l - s) = 2
        # from the page's Euler characteristic, as the lens-space model does
        pattern = TestNegativeCable().make_pattern(3)
        resolved = resolve(pattern, [0])
        assert resolved.page_euler_char == pattern.page_euler_char - 2
        assert resolved.page_euler_char == lens_model_resolve(pattern, [0]).page_euler_char
        assert validate(resolved) == []


def assert_closed_forms(report, p):
    """Every field of the report, stored or derived, is its closed form in p."""
    assert report.to_json() == {
        "p": p, "algebraic_length": p - 8, "mod10_length": (p - 8) % 10,
        "required_mod10": (p + 3) % 10, "filling_euler_characteristic": p,
        "positive_factorization_length": p + 3, "obstructed": True, "verdict": "OBSTRUCTED"}, p
    assert report.word_length == p + 18, p


class TestObstruction:
    def test_universal_for_p_up_to_100(self):
        for p in range(1, 101):
            assert_closed_forms(stein_obstruction_Lppm1(p), p)

    def test_closed_forms_hold_at_large_p(self):
        assert_closed_forms(stein_obstruction_Lppm1(10 ** 5), 10 ** 5)

    def test_word_expands_via_chain_relations(self):
        report = stein_obstruction_Lppm1(1)
        # 15 Garside twists - 24 expanded boundary twists + 2 monodromy twists
        assert report.algebraic_length == -7
        assert "OBSTRUCTED" in report.summary()

    def test_summary_of_agreeing_residues_claims_no_obstruction(self):
        # every p obstructs, so only a report built by hand has agreeing residues
        report = ObstructionReport(5, algebraic_length=8, word_length=20)
        assert (report.mod10_length, report.required_mod10) == (8, 8)
        assert report.summary() == "L(5,4): residues agree; no obstruction"

    def test_a_report_keeps_only_what_it_cannot_derive(self):
        # the residues, the filling and the verdict are functions of p and
        # the algebraic length, so no report can contradict itself
        assert ObstructionReport.__slots__ == ("p", "algebraic_length", "word_length")
        report = stein_obstruction_Lppm1(13)
        assert repr(report) == "ObstructionReport(13, 5, 31)"
        with pytest.raises(TypeError):
            ObstructionReport(5, 8, 20, 8)

    def test_the_cable_word_is_walked_once(self, monkeypatch):
        import cablekit.curves

        calls = []

        def counting(word, sys_):
            calls.append(len(word))
            return algebraic_length(word, sys_)

        monkeypatch.setattr(cablekit.curves, "algebraic_length", counting)
        report = stein_obstruction_Lppm1(7)
        assert calls == [report.word_length]


class TestCobordism:
    def test_identity_pieces_give_rotation_alone(self):
        page = connected_book(1)
        cw = compose_cobordism_word(TwistWord(()), TwistWord(()), page)
        assert len(cw.word) == 3
        assert cw.word.is_positive()

    def test_certificate_passes(self):
        page = connected_book(1)
        cw = compose_cobordism_word(
            TwistWord.twists("c1"), TwistWord.twists("c2", "c1"), page
        )
        assert cw.notes["conjugation_lands_on_nodule_1"]
        assert cw.notes["rotation_positive"]

    def test_oracle_restriction(self):
        # conjugating the nodule-2 factor across the rotation lands it on
        # nodule 1: the output matrix equals (phi2 on nodule 1) o rotation o
        # (phi1 on nodule 1)
        page = connected_book(1)
        phi1, phi2 = TwistWord.twists("c1"), TwistWord.twists("c2")
        cw = compose_cobordism_word(phi1, phi2, page)
        sys_ = cw.system
        rot = monodromy_22_connected(page.with_monodromy(TwistWord(()))).word
        phi2_on_1 = TwistWord.twists("e2")
        phi1_on_1 = TwistWord.twists("e1")
        expected = phi2_on_1.compose(rot).compose(phi1_on_1)
        assert sys_.word_matrix(cw.word) == sys_.word_matrix(expected)

    def test_disconnected_page(self):
        page = disconnected_book(0, 2)
        cw = compose_cobordism_word(TwistWord(()), TwistWord(()), page)
        assert cw.word.is_positive()
        assert cw.notes["rotation_positive"]

    def test_a_certificate_that_fails_the_oracle_is_refused(self, monkeypatch):
        # the nodule-2 lift one letter short no longer conjugates onto the
        # nodule-1 lift, and the oracle's comparison refuses the word
        import cablekit.monodromy

        def short_lift(word, chain, boundary=None):
            lift = lift_to_nodule(word, chain, boundary)
            return TwistWord(lift.generators[:-1]) if boundary == "partial2" else lift

        monkeypatch.setattr(cablekit.monodromy, "lift_to_nodule", short_lift)
        with pytest.raises(MonodromyError,
                           match="^destabilization certificate failed the oracle$"):
            compose_cobordism_word(TwistWord.twists("c1"), TwistWord.twists("c2", "c1"),
                                   connected_book(1))


    @pytest.mark.parametrize("g", range(5))
    def test_the_relabelled_conjugate_is_the_letter_by_letter_conjugate(self, g):
        # R22 Phi_2 R22^-1 by relabelling Phi_2's delta through the page's
        # turn, against rot . lift2 . rot^-1 evaluated letter by letter on
        # the page with `rotation` None, on random page words
        rng = random.Random(38 + g)
        sys_ = sigma22_cover_system(g)
        slow = without_rotation(sys_)
        rotation, turn = TwistWord(sys_.rotation[0]), sys_.rotation[1]
        names = [f"c{k}" for k in range(1, 2 * g + 2) if g] + ["bdry_1"]
        for _ in range(30):
            phi1, phi2 = (TwistWord.twists(*((rng.choice(names), rng.choice([1, -1]))
                                             for _ in range(rng.randrange(9)))) for _ in range(2))
            lift2 = lift_to_nodule(phi2, _e_chain(g, 2), "partial2")
            want = slow.word_delta(rotation.compose(lift2).compose(rotation.inverse()))
            assert _conjugate(sys_.word_delta(lift2), turn) == want, (g, phi2)
            cw = compose_cobordism_word(phi1, phi2, connected_book(g))
            assert cw.notes["conjugation_lands_on_nodule_1"], (g, phi2)

    @pytest.mark.parametrize("seed", range(10))
    def test_the_relabelling_is_the_product_with_the_turn_and_its_inverse(self, seed):
        # the (2,2) turn has every sign +1, so random signed permutations
        # test the signs s_i s_j: R (I + delta) R^-1 by the slow product
        rng = random.Random(seed)
        for _ in range(50):
            n = rng.randrange(1, 9)
            delta, images = _random_delta(rng, n, 2 * n), rng.sample(range(n), n)
            turn = {t: (u, rng.choice([1, -1])) for t, u in enumerate(images)}
            inverse = {u: (t, s) for t, (u, s) in turn.items()}
            want = _delta_product(_delta_product(turn_delta(turn), delta), turn_delta(inverse))
            assert _conjugate(delta, turn) == want, (seed, turn)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_phi2_lifted_to_the_wrong_nodule_is_refused(self, g, monkeypatch):
        import cablekit.monodromy

        def wrong_nodule(word, chain, boundary=None):
            if boundary == "partial2":
                chain, boundary = _e_chain(g, 1), "partial1"
            return lift_to_nodule(word, chain, boundary)

        monkeypatch.setattr(cablekit.monodromy, "lift_to_nodule", wrong_nodule)
        with pytest.raises(MonodromyError,
                           match="^destabilization certificate failed the oracle$"):
            compose_cobordism_word(TwistWord.twists("c1"), TwistWord.twists("c2", "c1"),
                                   connected_book(g))

    @pytest.mark.parametrize("g", range(1, 5))
    def test_a_sign_flipped_in_the_cached_turn_is_refused(self, g, monkeypatch):
        # _checked_turn passes the turn, then one sign of it flips in the
        # cache: the conjugate of phi2 = c1 ... c2g, whose lift moves every
        # coordinate of nodule 2, reads the flipped sign.  The conjugate reads
        # only the columns where the lift lives; _checked_turn checks the
        # whole turn once per genus
        import cablekit.monodromy

        _cover22_model.cache_clear()
        curves, rho_names, turn = _cover22_model(g)
        phi2 = TwistWord.twists(*(f"c{k}" for k in range(1, 2 * g + 1)))
        compose_cobordism_word(TwistWord(()), phi2, connected_book(g))
        for t in range(2 * g, 4 * g):
            flipped = tuple((j, (u, -s if j == t else s)) for j, (u, s) in turn)
            monkeypatch.setattr(cablekit.monodromy, "_cover22_model",
                                lambda g, flipped=flipped: (curves, rho_names, flipped))
            with pytest.raises(MonodromyError,
                               match="^destabilization certificate failed the oracle$"):
                compose_cobordism_word(TwistWord(()), phi2, connected_book(g))

    def test_a_failed_certificate_keeps_its_exit_code_and_message(self, tmp_path, monkeypatch):
        import cablekit.monodromy

        def short_lift(word, chain, boundary=None):
            lift = lift_to_nodule(word, chain, boundary)
            return TwistWord(lift.generators[:-1]) if boundary == "partial2" else lift

        page, w1, w2 = (tmp_path / name for name in ("page.json", "w1.json", "w2.json"))
        page.write_text(json.dumps(connected_book(1).to_json()))
        w1.write_text(json.dumps(TwistWord.twists("c1").to_json()))
        w2.write_text(json.dumps(TwistWord.twists("c2", "c1").to_json()))
        argv = ["compose-cobordism", "--page", str(page), str(w1), str(w2)]
        assert run_main(argv)[0] == 0
        monkeypatch.setattr(cablekit.monodromy, "lift_to_nodule", short_lift)
        assert run_main(argv) == (2, "", "error: destabilization certificate failed the oracle\n")


class TestChainEndReference:
    """Dense references for the nodule chain ends n{i}_{2g+1} and boundaries
    partial{i} of the (2,2) system: the classes are the unique solutions of
    their pairings with the nodule's covered chain, and with c{2g+1} and bdry_1
    in the monodromy the rotation has order exactly 2 and the cobordism
    certificate holds, the nodule images built by hand."""

    @staticmethod
    def nodule_class(g, i, curve):
        """The class of the lift of page curve `curve` to nodule i, by hand:
        e_k (mirrored on nodule 2), a_g or a_{2g} for c{2g+1}, 0 for bdry_1."""
        cls = [0] * (4 * g)
        if curve == f"c{2 * g + 1}":
            cls[2 * g - 2 if i == 1 else 4 * g - 2] = 1
            return tuple(cls)
        if curve == "bdry_1":
            return tuple(cls)
        k = int(curve[1:])
        return sigma22_cover_system(g).curve(f"e{k if i == 1 else 4 * g + 2 - k}").homology

    def dense_nodule_matrix(self, g, i, letters):
        out = identity_matrix(4 * g)
        for curve, sign in letters:
            out = mat_mul(out, transvection(self.nodule_class(g, i, curve), sign, 4 * g))
        return out

    @staticmethod
    def page_letters(g, seed):
        rng = random.Random(seed)
        letters = [(f"c{2 * g + 1}", 1), ("bdry_1", -1)]
        letters += [(f"c{rng.randint(1, 2 * g + 1)}", rng.choice((1, -1))) for _ in range(4)]
        rng.shuffle(letters)
        return letters

    @pytest.mark.parametrize("g", range(1, 5))
    def test_chain_ends_are_the_unique_solutions(self, g):
        sys_ = sigma22_cover_system(g)
        for i in (1, 2):
            covered = [f"e{k if i == 1 else 4 * g + 2 - k}" for k in range(1, 2 * g + 1)]
            end = sys_.curve(f"n{i}_{2 * g + 1}").homology
            pairings = [sum(x * y for x, y in zip(pairing_row(end), sys_.curve(e).homology))
                        for e in covered]
            assert [abs(x) for x in pairings] == [0] * (2 * g - 1) + [1]
            # one exact solve in the nodule's span: the coefficients on the
            # covered chain are integral and unique, and they give the class
            rows = [[sum(x * y for x, y in zip(pairing_row(sys_.curve(b).homology),
                                               sys_.curve(a).homology)) for b in covered]
                    for a in covered]
            coefficients = solve_integer_system(rows, pairings)
            assert end == tuple(sum(c * x for c, x in zip(
                coefficients, (sys_.curve(e).homology[t] for e in covered))) for t in range(4 * g))
            assert not any(sys_.curve(f"partial{i}").homology)
        # nodule 1's chain end has the class of the (p,1) system's, up to sign
        ref = cable_p1_system(g, 1).curve(f"n1_{2 * g + 1}").homology
        assert sys_.curve(f"n1_{2 * g + 1}").homology[:2 * g] in (ref, tuple(-x for x in ref))

    @pytest.mark.parametrize("g", range(1, 5))
    def test_rotation_has_order_two_with_the_chain_end_in_phi(self, g):
        letters = self.page_letters(g, g)
        cw = monodromy_22_connected(connected_book(g, TwistWord.twists(*letters)))
        m = dense_word_matrix(cw.system, cw.word)
        rot = mat_mul(m, symplectic_inverse(self.dense_nodule_matrix(g, 1, letters)))
        assert rot != identity_matrix(4 * g) and mat_mul(rot, rot) == identity_matrix(4 * g)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_cobordism_certificate_with_the_chain_end(self, g):
        phi1, phi2 = self.page_letters(g, 10 + g), self.page_letters(g, 20 + g)
        page = connected_book(g)
        cw = compose_cobordism_word(TwistWord.twists(*phi1), TwistWord.twists(*phi2), page)
        assert cw.notes["conjugation_lands_on_nodule_1"] is True
        rot = dense_word_matrix(cw.system, monodromy_22_connected(page).word)
        on_2 = self.dense_nodule_matrix(g, 2, phi2)
        conj = mat_mul(mat_mul(rot, on_2), symplectic_inverse(rot))
        assert conj == self.dense_nodule_matrix(g, 1, phi2)
        assert dense_word_matrix(cw.system, cw.word) == mat_mul(
            mat_mul(rot, on_2), self.dense_nodule_matrix(g, 1, phi1))


def connected_builds(g, word):
    """Every connected-binding builder, by name, as a call that lifts `word`
    onto nodule 1, or onto nodule 2 in the second cobordism slot."""
    book, empty = connected_book(g, word), TwistWord(())
    builds = {f"monodromy_p1_connected p={p}": partial(monodromy_p1_connected, book, p)
              for p in range(1, 5)}
    builds["monodromy_22_connected"] = partial(monodromy_22_connected, book)
    for r in range(2, 5):
        pattern = RationalOpenBook(genus=g, components=(BindingComponent(r, -1),), monodromy=(
            TwistWord.of(Generator.fractional_boundary("1", Fraction(1, r))).compose(word)))
        builds[f"negative_cable_word r={r}"] = partial(negative_cable_word, pattern)
    builds["compose_cobordism_word phi1"] = partial(compose_cobordism_word, word, empty, book)
    builds["compose_cobordism_word phi2"] = partial(compose_cobordism_word, empty, word, book)
    return builds


# Builders whose words name no curve system.  The list may only shrink: the
# disconnected (p,1) word also stands for the disconnected-page words of
# monodromy_pq and compose_cobordism_word, which are built on it.
BUILDERS_WITHOUT_SYSTEM = ("monodromy_p1_disconnected",)

# Page names that are neither a chain curve c_k nor a boundary twist; some
# name a curve of a cable page (x1, or the band curve c1_2 of a disconnected one)
OUTSIDE_THE_MODEL = ("alpha", "x1", "c1_2", "cusp")


# Letters that are no Dehn twist and no builder's own
FOREIGN_LETTERS = (Generator.fractional_boundary("nowhere", Fraction(1, 3)),
                   Generator.stabilization_marker("junk"))


class TestLiftModel:
    """A page word lifts onto a nodule of the system its builder returns:
    every returned word evaluates there, or the builder refuses the book.
    A word naming a curve outside the model is refused by every builder, and
    so is a letter that is no Dehn twist: the only other letters of a built
    word are the builder's own."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_word_evaluates_on_its_system(self, data):
        g = data.draw(st.integers(1, 3), "genus")
        r = data.draw(st.sampled_from([1, 1, 2, 3, 4]), "order")
        names = sorted(chain_model(g, 1).curves)
        curves = st.one_of(st.sampled_from(names), st.sampled_from(OUTSIDE_THE_MODEL))
        dehn = st.builds(Generator.dehn_twist, curves, st.sampled_from([1, -1]))
        letters = st.lists(st.one_of(dehn, dehn, dehn, st.sampled_from(FOREIGN_LETTERS)),
                           max_size=4).map(lambda items: TwistWord(tuple(items)))
        phi, phi1, phi2 = (data.draw(letters, label) for label in ("phi", "phi1", "phi2"))
        apart = RationalOpenBook(genus=g, components=(BindingComponent(1, 0),) * 2,
                                 monodromy=phi)
        if r > 1:  # an (r, -1)-book, the input of the negative cable
            phi = TwistWord.of(Generator.fractional_boundary("1", Fraction(1, r))).compose(phi)
        book = RationalOpenBook(genus=g, components=(BindingComponent(r, -int(r > 1)),),
                                monodromy=phi)
        builds = {f"monodromy_p1_connected p={p}": (partial(monodromy_p1_connected, book, p), phi)
                  for p in range(1, 5)}
        builds["monodromy_22_connected"] = (partial(monodromy_22_connected, book), phi)
        builds["monodromy_pq p,q=3,2"] = (partial(monodromy_pq, book, 3, 2), phi)
        builds["negative_cable_word"] = (partial(negative_cable_word, book), phi)
        builds["compose_cobordism_word"] = (
            partial(compose_cobordism_word, phi1, phi2, book), phi1.compose(phi2))
        builds["monodromy_p1_disconnected"] = (partial(monodromy_p1_disconnected, apart, 2), phi)
        builds["monodromy_p1_disconnected via compose_cobordism_word"] = (
            partial(compose_cobordism_word, phi1, phi2, apart), phi1.compose(phi2))
        for name, (build, read) in builds.items():
            try:
                cw = build()
            except MonodromyError:
                continue
            assert not any(x.curve in OUTSIDE_THE_MODEL for x in read), name
            for x in cw.word:
                assert x.kind == DEHN or (x.kind, x.curve) == (FRACTIONAL, "outer") or (
                    x.kind == STAB and x.curve.startswith("cable_3_2_")), (name, x)
            if cw.system is None:
                assert name.partition(" ")[0] in BUILDERS_WITHOUT_SYSTEM, name
            else:
                cw.system.word_delta(cw.word)

    @pytest.mark.parametrize("curve", OUTSIDE_THE_MODEL)
    def test_every_builder_refuses_names_outside_the_model(self, curve):
        word = TwistWord.twists("c1", curve)
        connected = connected_book(1, word)
        apart = disconnected_book(1, 2).with_monodromy(word)
        builds = [partial(monodromy_p1_connected, connected, 2),
                  partial(monodromy_22_connected, connected),
                  partial(monodromy_p1_disconnected, apart, 2)]
        for r in (2, 3):
            pattern = TestNegativeCable().make_pattern(r)
            builds.append(partial(negative_cable_word, pattern.with_monodromy(
                pattern.monodromy.compose(word))))
        for page in (connected, apart):
            builds += [partial(compose_cobordism_word, word, TwistWord(()), page),
                       partial(compose_cobordism_word, TwistWord(()), word, page)]
        for build in builds:
            with pytest.raises(MonodromyError, match=f"^curve {curve} has no nodule model$"):
                build()

    def test_builders_without_a_system_are_the_named_list(self):
        words = {
            "monodromy_p1_disconnected": monodromy_p1_disconnected(disconnected_book(1, 2), 2),
        }
        assert tuple(words) == BUILDERS_WITHOUT_SYSTEM
        assert all(cw.system is None for cw in words.values())

    def test_boundary_twist_lifts_to_the_nodule_boundary(self):
        # every connected page has one boundary, bdry_1; it lifts to the
        # boundary partial{i} of the nodule the word lands on, on the (p,1),
        # the (2,2) and the cobordism pages alike
        book = connected_book(1, TwistWord.twists("c1", ("bdry_1", -1)))
        for cw in (monodromy_p1_connected(book, 1), monodromy_p1_connected(book, 2)):
            assert [(x.curve, x.sign) for x in cw.word[-2:]] == [("n1_1", 1), ("partial1", -1)]
        cw = monodromy_22_connected(book)
        assert [(x.curve, x.sign) for x in cw.word[-2:]] == [("e1", 1), ("partial1", -1)]
        cw = compose_cobordism_word(TwistWord(()), book.monodromy, connected_book(1))
        assert [(x.curve, x.sign) for x in cw.word[-2:]] == [("e5", 1), ("partial2", -1)]
        for cw in (monodromy_22_connected(book),
                   compose_cobordism_word(TwistWord(()), book.monodromy, connected_book(1))):
            cw.system.word_delta(cw.word)

    def test_chain_past_the_nodule_is_refused(self):
        # c{2g+1} = c3 is the last chain curve of a genus-1 page and lifts to
        # the nodule chain's end; c4 is past it and every builder refuses it
        book = connected_book(1, TwistWord.twists("c3"))
        assert monodromy_p1_connected(book, 2).word[-1].curve == "n1_3"
        assert monodromy_22_connected(book).word[-1].curve == "n1_3"
        book = connected_book(1, TwistWord.twists("c4"))
        with pytest.raises(MonodromyError, match=r"^curve c4 has no nodule model$"):
            monodromy_p1_connected(book, 2)
        with pytest.raises(MonodromyError, match=r"^curve c4 has no nodule model$"):
            monodromy_22_connected(book)

    def test_every_connected_builder_lifts_exactly_the_page_model(self):
        # the lift's domain is the page model chain_model(g, 1): each of its
        # names lifts, c{2g+1} to the nodule chain's end and bdry_1 to the
        # nodule boundary, and the word evaluates on the builder's system;
        # every other name is refused with the one message.  The (p,1)
        # system has no disk page, so at g = 0 it refuses a lifted word.
        for g in range(5):
            model = chain_model(g, 1).curves
            for curve in (*model, "bdry_2", "bdry_outer", f"c{2 * g + 2}", "x1", "e3"):
                for name, build in connected_builds(g, TwistWord.twists(curve)).items():
                    if curve not in model:
                        with pytest.raises(MonodromyError,
                                           match=f"^curve {curve} has no nodule model$"):
                            build()
                        continue
                    try:
                        cw = build()
                    except MonodromyError as exc:
                        assert (g, str(exc)) == (0, "disk and annulus pages have no chain "
                                                    "model here"), name
                        continue
                    cw.system.word_delta(cw.word)
                    i = 2 if name.endswith("phi2") else 1
                    image = {f"c{2 * g + 1}": f"n{i}_{2 * g + 1}", "bdry_1": f"partial{i}"}
                    if curve in image:
                        assert cw.word[-1].curve == image[curve], name

    def test_lift_memory_follows_the_lifted_word(self):
        # one image per distinct letter and one tuple of the word's length,
        # 8 bytes a letter: no per-letter key
        chain = [f"n1_{k}" for k in range(1, 4)]
        word = TwistWord.twists("c1").power(10 ** 5)
        tracemalloc.start()
        try:
            lifted = lift_to_nodule(word, chain, "partial1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lifted) == 10 ** 5 and lifted[0] is lifted[-1]
        assert lifted[0] == Generator.dehn_twist("n1_1")
        assert peak <= 3 * 8 * 10 ** 5, peak
        # a word loaded from JSON holds one object per letter, and its lift
        # still holds one per distinct letter
        shared = TwistWord.twists("c1", ("c2", -1), "bdry_1", "c1").power(25)
        loaded = TwistWord.from_json(shared.to_json())
        assert len({id(x) for x in loaded}) == len(loaded) == 100
        lifted = lift_to_nodule(loaded, chain, "partial1")
        assert lifted == lift_to_nodule(shared, chain, "partial1")
        assert len({id(x) for x in lifted}) == 3


def reference_garside_block(chain):
    """Reference: the Garside block spelled letter by letter, one suffix of
    the chain after another."""
    names = []
    for start in range(len(chain) - 1, -1, -1):
        names.extend(chain[start:])
    return TwistWord.twists(*names)


def reference_rho_p1_rotation(g, p):
    """Reference: the rotation word built block by block through
    reference_garside_block."""
    gens = []
    for j in range(p, 1, -1):
        gens.append(Generator.dehn_twist(f"partial{j}", -1))
    for j in range(1, p):
        gens.append(Generator.dehn_twist(f"partial{j}", -1))
        gens.extend(reference_garside_block(p1_layout(g, j)).generators)
    return TwistWord(tuple(gens))


class TestRotationStructure:
    @pytest.mark.parametrize("g", range(1, 5))
    def test_rotation_equals_the_letter_by_letter_reference(self, g):
        for p in range(1, 7):
            assert rho_p1_rotation(g, p) == reference_rho_p1_rotation(g, p), (g, p)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_rotation_holds_one_generator_per_distinct_letter(self, g):
        # layouts j and j+1 share nodule j+1's chain and each block repeats
        # its letters, yet every (curve, sign) is one object
        for p in range(1, 7):
            word = rho_p1_rotation(g, p)
            assert len({id(x) for x in word}) == len({(x.curve, x.sign) for x in word}), (g, p)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_the_inverse_rotation_is_spelled_directly(self, g):
        # sign -1 spells the inverse letter for letter, over one Generator
        # per distinct letter, as inverse() gives it
        for p in range(1, 7):
            word = rho_p1_rotation(g, p, -1)
            assert word == rho_p1_rotation(g, p).inverse(), (g, p)
            assert len({id(x) for x in word}) == len({(x.curve, x.sign) for x in word}), (g, p)

    def test_garside_block_equals_the_letter_by_letter_reference(self):
        for m in range(0, 12):
            chain = [f"c{k}" for k in range(1, m + 1)]
            assert garside_block(chain) == reference_garside_block(chain), m

    def test_layout_chain_length(self):
        for g in range(1, 5):
            assert len(p1_layout(g, 1)) == 4 * g + 1

    def test_garside_block_length(self):
        for g in range(1, 6):
            d = 2 * g + 1
            assert len(garside_block(p1_layout(g, 1))) == d * (2 * d - 1)

    def test_rotation_squares_to_identity_on_homology(self):
        for g in (1, 2):
            sys_ = cable_p1_system(g, 2)
            rho = rho_p1_rotation(g, 2)
            m = sys_.word_matrix(rho.compose(rho))
            assert m == identity_matrix(4 * g)


def signed_cycle(g, p):
    """The (p,1) rotation's closed form on homology as a delta: R e_t =
    -e_{t+2g} for a coordinate t of nodule i < p, and R e_t = (-1)^(p-1)
    e_{t-2g(p-1)} for one of nodule p (the identity at p = 1)."""
    n, last = 2 * g, 2 * g * (p - 1)
    if p == 1:
        return {}
    return {**{t: {t: -1, t + n: -1} for t in range(last)},
            **{t: {t: -1, t - last: (-1) ** (p - 1)} for t in range(last, last + n)}}


class TestRotationClosedForm:
    """The (p,1) rotation, its stored turn composed from the Garside blocks'
    signed permutations, is the signed cycle of the nodules, and the turn of
    the inverse run is its inverse; so is the rotation evaluated letter by
    letter with `rotation` None."""

    @staticmethod
    def assert_turns(g, p):
        turn, inverse = (cable_p1_system(g, p, sign).rotation[1] for sign in (1, -1))
        assert turn_delta(turn) == signed_cycle(g, p), (g, p)
        assert inverse == {u: (t, s) for t, (u, s) in turn.items()}, (g, p)

    @pytest.mark.parametrize("g", range(1, 4))
    def test_the_rotation_is_the_signed_cycle_of_the_nodules(self, g):
        for p in range(1, 7):
            self.assert_turns(g, p)
            sys_ = cable_p1_system(g, p)
            rotation = rho_p1_rotation(g, p)
            assert sys_.word_delta(rotation) == signed_cycle(g, p), (g, p)
            assert without_rotation(sys_).word_delta(rotation) == signed_cycle(g, p), (g, p)

    def test_the_fast_path_at_p_500_is_the_signed_cycle(self):
        self.assert_turns(1, 500)
        assert cable_p1_system(1, 500).word_delta(rho_p1_rotation(1, 500)) == signed_cycle(1, 500)


class TestExpandedCableWordShape:
    def test_expanded_21_cable_word_of_genus_one_book(self):
        # for the page-one-torus book with monodromy D_1^p o D_2 the
        # (2,1)-cable word expands to: 12 negative twists on the second
        # nodule chain, 12 negative on the first, the 15 positive Garside
        # twists, then the p+1 monodromy twists
        p = 3
        book = connected_book(1, TwistWord.twists(*(["c1"] * p + ["c2"])))
        cw = monodromy_p1_connected(book, 2)
        expanded = _expand_to_nonseparating(cw.word, cw.system)
        signs = [g.sign for g in expanded]
        assert signs[:24] == [-1] * 24
        assert signs[24:] == [1] * (15 + p + 1)
        assert all(g.curve.startswith("n2") for g in expanded[:12])
        assert all(g.curve.startswith("n1") for g in expanded[12:24])
        assert len(expanded) == 24 + 15 + p + 1

    def test_algebraic_length_matches_expanded_word(self):
        def expanded_sum(word, sys_):
            return sum(g.sign for g in _expand_to_nonseparating(word, sys_))

        for g in (1, 2, 3):
            chain = TwistWord.twists(*(f"c{i}" for i in range(1, 2 * g + 2)))
            for p in (2, 3, 4):
                for base in (TwistWord(()), chain, chain.inverse()):
                    cw = monodromy_p1_connected(connected_book(g, base), p)
                    for word in (cw.word, cw.word.inverse()):
                        assert algebraic_length(word, cw.system) == expanded_sum(word, cw.system)
        for p in range(1, 101):
            book = connected_book(1, TwistWord.twists(*(["c1"] * p + ["c2"])))
            cw = monodromy_p1_connected(book, 2)
            assert algebraic_length(cw.word, cw.system) == expanded_sum(cw.word, cw.system)

    def test_algebraic_length_fails_at_the_first_unexpandable_letter(self):
        sys_ = cable_p1_system(1, 2)
        word = TwistWord.of(Generator.dehn_twist("partial1"),
                            Generator.stabilization_marker("s"),
                            Generator.dehn_twist("bdry_outer"))
        for fn in (algebraic_length, _expand_to_nonseparating):
            with pytest.raises(NonExpandableGeneratorError, match=r"^stab\(s\) is not"):
                fn(word, sys_)

    def test_nodule_boundary_negatives_localized(self):
        for g in (1, 2):
            for p in (2, 3, 4):
                cw = monodromy_p1_connected(connected_book(g, TwistWord(())), p)
                negatives = [x for x in cw.word if x.sign < 0]
                # p-1 leading boundary twists plus one per rotation block
                leading = [x for x in cw.word[: p - 1]]
                assert all(x.sign < 0 for x in leading)
                assert len(negatives) == 2 * (p - 1)


class TestSurgeryRationalComponent:
    def test_half_integer_on_rational_component(self):
        from cablekit.classify import induced_open_book_from_surgery
        from cablekit.slopes import Slope

        book = RationalOpenBook(genus=1, components=(BindingComponent(3, -1),))
        out = induced_open_book_from_surgery(book, 0, Slope(-1, 2))
        comp = out.components[0]
        # |a*r - b*s| = |-3 + 2| = 1: the induced book is integral
        assert comp.order == 1
        assert dict(out.metadata).get("contact") == "admissible-surgery supported"

    def test_order_formula(self):
        from cablekit.classify import induced_open_book_from_surgery
        from cablekit.slopes import Slope

        book = RationalOpenBook(genus=1, components=(BindingComponent(3, -1),))
        out = induced_open_book_from_surgery(book, 0, Slope(-5, 3))
        assert out.components[0].order == abs(-5 * 3 - 3 * (-1))


class TestAnnulusCable:
    def test_22_cable_of_disk_book_is_one_twist(self):
        disk = RationalOpenBook(
            genus=0, components=(BindingComponent(1, 0),), monodromy=TwistWord(())
        )
        cw = monodromy_22_connected(disk)
        assert len(cw.word) == 1 and cw.word.is_positive()
        assert (cw.book.genus, cw.book.boundary_count_of_page) == (0, 2)


class TestRotationOrder:
    def test_p1_rotation_has_homology_order_p(self):
        # the rotation permutes the p nodules cyclically; its boundary-twist
        # corrections are homologically invisible, so its matrix has exact
        # order p
        cells = [(g, p) for g in (1, 2) for p in (2, 3, 4)] + [(5, 5)]
        for g, p in cells:
            cs = cable_p1_system(g, p)
            m = cs.word_matrix(rho_p1_rotation(g, p))
            acc = identity_matrix(2 * p * g)
            for k in range(1, p):
                acc = mat_mul(acc, m)
                assert acc != identity_matrix(2 * p * g), (g, p, k)
            assert mat_mul(acc, m) == identity_matrix(2 * p * g), (g, p)

    def test_rotation_sends_first_nodule_to_second(self):
        cs = cable_p1_system(1, 3)
        m = cs.word_matrix(rho_p1_rotation(1, 3))
        image = mat_vec(m, cs.curve("n1_1").homology)
        target = cs.curve("n2_1").homology
        assert image in (target, tuple(-x for x in target))
