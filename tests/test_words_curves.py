"""Word algebra, the symplectic oracle, lengths, and the relation registry."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablekit.curves import (
    CurveSystem,
    CurveSystemError,
    NonExpandableGeneratorError,
    UnresolvedCurveError,
    algebraic_length,
    chain_model,
    mat_mul,
    mod10_class,
    transvection,
    words_equal_on_homology,
)
from cablekit.library import lantern_genus3_model
from cablekit.monodromy import cable_p1_system, sigma22_cover_system
from cablekit.rewrite import (
    RelationOracleError,
    RelationRegistry,
    RewriteError,
    RewriteScript,
    Step,
    replay,
)
from cablekit.words import BRAID_HALF, DEHN, FRACTIONAL, STAB, Generator, TwistWord
from fractions import Fraction


class TestWordAlgebra:
    def test_composition_order(self):
        w = TwistWord.twists("a").compose(TwistWord.twists("b"))
        assert [g.curve for g in w] == ["a", "b"]  # b acts first

    def test_inverse(self):
        w = TwistWord.twists("a", ("b", -1), "c")
        winv = w.inverse()
        assert [(g.curve, g.sign) for g in winv] == [("c", -1), ("b", 1), ("a", -1)]

    def test_fractional(self):
        g = Generator.fractional_boundary("1", Fraction(-2, 5))
        assert g.sign == -1 and g.inverse().amount == Fraction(2, 5)

    def test_amount_only_on_fractional(self):
        with pytest.raises(ValueError):
            Generator.from_json({"kind": "dehn", "curve": "a", "amount": "1/2"})

    @pytest.mark.parametrize("sign", [7, -1, 0])
    def test_fractional_sign_matches_amount(self, sign):
        letter = {"kind": "fractional", "curve": "1", "sign": sign, "amount": "1/2"}
        with pytest.raises(ValueError, match="sign"):
            Generator.from_json(letter)
        with pytest.raises(ValueError, match="sign"):
            Generator(FRACTIONAL, "1", sign, Fraction(1, 2))

    @pytest.mark.parametrize("amount", ["1/2", "-3/4"])
    def test_fractional_sign_defaults_to_the_sign_of_amount(self, amount):
        g = Generator.from_json({"kind": "fractional", "curve": "1", "amount": amount})
        assert g == Generator.fractional_boundary("1", Fraction(amount))
        assert TwistWord.of(g).is_positive() == (g.amount > 0)

    def test_map_curves_renames_dehn_twists_only(self):
        w = TwistWord.of(
            Generator.dehn_twist("a", -1),
            Generator.fractional_boundary("a", Fraction(1, 3)),
            Generator.braid_half_twist("a"),
            Generator.stabilization_marker("a"),
            Generator.dehn_twist("b"),
        )
        out = w.map_curves(lambda c: c.upper())
        assert out == TwistWord.of(
            Generator.dehn_twist("A", -1), *w[1:4], Generator.dehn_twist("B")
        )

    def test_json_round_trip(self):
        w = TwistWord.of(
            Generator.dehn_twist("a", -1),
            Generator.fractional_boundary("1", Fraction(1, 3)),
            Generator.stabilization_marker("m"),
        )
        assert TwistWord.from_json(w.to_json()) == w


class TestSymplecticOracle:
    def test_empty_word_is_identity(self):
        cm = chain_model(1)
        assert cm.word_matrix(TwistWord(())) == identity_matrix(2)

    def test_single_twist_is_elementary_transvection(self):
        cm = chain_model(1)
        assert cm.word_matrix(TwistWord.twists("c1")) == transvection((1, 0), 1, 2)

    def test_chain_relation_order_six(self):
        cm = chain_model(1)
        w = TwistWord.twists("c1", "c2").power(6)
        assert cm.word_matrix(w) == identity_matrix(2)

    def test_twist_and_inverse_differ(self):
        cm = chain_model(1)
        assert not words_equal_on_homology(
            TwistWord.twists("c1"), TwistWord.twists(("c1", -1)), cm
        )

    def test_word_equals_itself(self):
        cm = chain_model(2)
        w = TwistWord.twists("c1", "c3", ("c2", -1))
        assert words_equal_on_homology(w, w, cm)

    def test_unresolved_curve(self):
        cm = chain_model(1)
        with pytest.raises(UnresolvedCurveError):
            cm.word_matrix(TwistWord.twists("nope"))

    def test_braid_half_twist_rejected(self):
        cm = chain_model(1)
        with pytest.raises(UnresolvedCurveError):
            cm.word_matrix(TwistWord.of(Generator.braid_half_twist("s1")))

    def test_odd_chain_relation_trivial_on_capped(self):
        for g in range(1, 4):
            cm = chain_model(g, 2)
            w = TwistWord.twists(*[f"c{i}" for i in range(1, 2 * g + 2)])
            assert cm.word_matrix(w.power(2 * g + 2)) == identity_matrix(2 * g)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 30), st.integers(0, 10 ** 9))
    def test_transvection_identity(self, g, length, seed):
        rng = random.Random(seed)
        cm = chain_model(g)
        names = [f"c{i}" for i in range(1, 2 * g + 2)]
        w = TwistWord.twists(
            *[(rng.choice(names), rng.choice([1, -1])) for _ in range(length)]
        )
        assert cm.word_matrix(w.compose(w.inverse())) == identity_matrix(2 * g)

    def test_conjugation_acts_as_transvection_along_image(self):
        cm = chain_model(2)
        f = TwistWord.twists("c1", "c2", ("c3", -1))
        mf = cm.word_matrix(f)
        for c in ("c1", "c4"):
            lhs = cm.word_matrix(f.compose(TwistWord.twists(c)).compose(f.inverse()))
            image = mat_vec(mf, cm.curve(c).homology)
            assert lhs == transvection(image, 1, 4)


def identity_matrix(n: int):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dense_word_matrix(sys_: CurveSystem, word: TwistWord):
    """Reference oracle: the letter-by-letter dense product of one
    transvection per Dehn twist, O(n^3) per letter, raising as the oracle
    does on letters it cannot evaluate."""
    out = identity_matrix(sys_.dim)
    for gen in word:
        if gen.kind == DEHN:
            step = transvection(sys_.curve(gen.curve).homology, gen.sign, sys_.dim)
        elif gen.kind in (FRACTIONAL, STAB):
            step = identity_matrix(sys_.dim)
        elif gen.kind == BRAID_HALF:
            raise UnresolvedCurveError(
                "braid half twists act on a punctured disk; lift them before evaluating"
            )
        else:
            raise UnresolvedCurveError(f"cannot evaluate generator {gen}")
        out = mat_mul(out, step)
    return out


_SYSTEM_KEYS = (
    [("chain", g) for g in range(5)]
    + [("p1", g, p) for g in range(1, 4) for p in range(1, 4)]
    + [("sigma22", g) for g in (1, 2)]
)


@functools.lru_cache(maxsize=None)
def _system(key) -> CurveSystem:
    if key[0] == "chain":
        return chain_model(key[1], 2)
    if key[0] == "p1":
        return cable_p1_system(key[1], key[2])
    return sigma22_cover_system(key[1])[0]


@st.composite
def _system_and_word(draw):
    """A system and a word over its curves (zero classes included) mixing
    signs, fractional twists, stabilization markers and runs of equal
    letters."""
    key = draw(st.sampled_from(_SYSTEM_KEYS))
    sys_ = _system(key)
    names = sorted(sys_.curves)
    sign = st.sampled_from((1, -1))
    letter = st.one_of(
        st.builds(Generator.dehn_twist, st.sampled_from(names), sign),
        st.builds(
            Generator.fractional_boundary,
            st.sampled_from(sys_.boundary_labels),
            st.fractions(-3, 3, max_denominator=5).filter(bool),
        ),
        st.builds(Generator.stabilization_marker, st.sampled_from(names), sign),
    )
    runs = draw(st.lists(st.tuples(letter, st.integers(1, 3)), max_size=15))
    return sys_, TwistWord(tuple(g for g, k in runs for _ in range(k)))


def _outcome(fn):
    try:
        return fn()
    except UnresolvedCurveError as exc:
        return type(exc), str(exc)


def _random_word(rng: random.Random, sys_: CurveSystem, length: int) -> TwistWord:
    """A seeded word over every curve of `sys_` (zero classes included) with
    mixed signs, fractional twists, stabilization markers and runs."""
    names = sorted(sys_.curves)
    gens = []
    while len(gens) < length:
        kind, sign = rng.random(), rng.choice((1, -1))
        if kind < 0.1:
            gen = Generator.fractional_boundary(sys_.boundary_labels[0], Fraction(sign, 3))
        elif kind < 0.15:
            gen = Generator.stabilization_marker(rng.choice(names), sign)
        else:
            gen = Generator.dehn_twist(rng.choice(names), sign)
        gens.extend([gen] * rng.randint(1, 3))
    return TwistWord(tuple(gens))


class TestSparseOracle:
    @pytest.mark.parametrize("g, p", [(4, 4), (5, 5)])  # dim 32 and 50
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_reference_on_large_cables(self, g, p, seed):
        sys_ = cable_p1_system(g, p)
        word = _random_word(random.Random(1000 * g + seed), sys_, 40)
        assert sys_.word_matrix(word) == dense_word_matrix(sys_, word)

    @settings(max_examples=150, deadline=None)
    @given(_system_and_word())
    def test_matches_dense_reference(self, case):
        sys_, word = case
        assert sys_.word_matrix(word) == dense_word_matrix(sys_, word)

    @settings(max_examples=60, deadline=None)
    @given(_system_and_word(), st.lists(st.tuples(st.booleans(), st.integers(0, 45)),
                                        min_size=1, max_size=3))
    def test_raises_like_dense_reference(self, case, bad):
        # braid half twists and unknown curves raise the reference's error,
        # the first offending letter in word order deciding the message
        sys_, word = case
        gens = list(word)
        for is_braid, pos in bad:
            gen = (Generator.braid_half_twist("s1") if is_braid
                   else Generator.dehn_twist("no_such_curve", -1))
            gens.insert(min(pos, len(gens)), gen)
        bad_word = TwistWord(tuple(gens))
        got = _outcome(lambda: sys_.word_matrix(bad_word))
        assert got == _outcome(lambda: dense_word_matrix(sys_, bad_word))
        assert got[0] is UnresolvedCurveError


class TestLengths:
    def test_empty(self):
        cm = chain_model(2)
        assert algebraic_length(TwistWord(()), cm) == 0

    def test_signed_count(self):
        cm = chain_model(2)
        w = TwistWord.twists("c1", "c2", ("c3", -1), "c4")
        assert algebraic_length(w, cm) == 2

    def test_boundary_twist_expansion_counts_twelve(self):
        sys_ = cable_p1_system(1, 2)
        w = TwistWord.twists("partial1").power(1)
        assert algebraic_length(w, sys_) == 12
        assert algebraic_length(w.inverse(), sys_) == -12

    def test_mod10_requires_genus2_one_boundary(self):
        with pytest.raises(CurveSystemError):
            mod10_class(TwistWord(()), chain_model(1))
        with pytest.raises(CurveSystemError):
            mod10_class(TwistWord(()), chain_model(2, 2))
        assert mod10_class(TwistWord.twists("c1"), chain_model(2, 1)) == 1

    def test_non_expandable(self):
        cm = chain_model(2)
        with pytest.raises(NonExpandableGeneratorError):
            algebraic_length(TwistWord.twists("bdry_1"), cm)


class TestRegistry:
    def test_lantern_registers_on_genus3_model(self):
        sys_, reg = lantern_genus3_model()
        rel = reg.relations["lantern"]
        assert words_equal_on_homology(rel.lhs, rel.rhs, sys_)
        assert sys_.word_matrix(rel.lhs) != identity_matrix(6)

    def test_oracle_gate_rejects(self):
        cm = chain_model(1)
        reg = RelationRegistry(cm)
        with pytest.raises(RelationOracleError):
            reg.register("bogus", TwistWord.twists("c1"), TwistWord.twists("c2"))

    def test_chain_relation_registers(self):
        cm = chain_model(1)
        reg = RelationRegistry(cm)
        reg.register(
            "chain_g1", TwistWord.twists("bdry_1"), TwistWord.twists("c1", "c2").power(6)
        )

    def test_duplicate_name(self):
        cm = chain_model(1)
        reg = RelationRegistry(cm)
        reg.register("r", TwistWord.twists("c1"), TwistWord.twists("c1"))
        with pytest.raises(RelationOracleError):
            reg.register("r", TwistWord.twists("c1"), TwistWord.twists("c1"))


class TestReplayEngine:
    def setup_method(self):
        self.sys = chain_model(2)
        self.reg = RelationRegistry(self.sys)

    def test_cancel(self):
        script = RewriteScript("t", [Step("cancel", 1)])
        w = TwistWord.twists("c1", "c2", ("c2", -1), "c3")
        out = replay(script, w, self.reg)
        assert [g.curve for g in out.word] == ["c1", "c3"]

    def test_cancel_requires_inverse_pair(self):
        script = RewriteScript("t", [Step("cancel", 0)])
        with pytest.raises(RewriteError):
            replay(script, TwistWord.twists("c1", "c2"), self.reg)

    def test_commute_requires_recorded_zero(self):
        ok = RewriteScript("t", [Step("commute", 0)])
        out = replay(ok, TwistWord.twists("c1", "c3"), self.reg)
        assert [g.curve for g in out.word] == ["c3", "c1"]
        with pytest.raises(RewriteError):
            replay(ok, TwistWord.twists("c1", "c2"), self.reg)

    def test_insert(self):
        script = RewriteScript("t", [Step("insert", 1, curve="c4")])
        out = replay(script, TwistWord.twists("c1", "c2"), self.reg)
        assert [((g.curve), g.sign) for g in out.word] == [
            ("c1", 1), ("c4", 1), ("c4", -1), ("c2", 1)
        ]

    def test_apply_exact_match_required(self):
        self.reg.register(
            "sq", TwistWord.twists("c1", "c1"), TwistWord.twists("c1").power(2)
        )
        script = RewriteScript("t", [Step("apply", 0, relation="sq")])
        with pytest.raises(RewriteError):
            replay(script, TwistWord.twists("c2", "c1"), self.reg)

    def test_empty_script_is_identity(self):
        w = TwistWord.twists("c1", ("c5", -1))
        out = replay(RewriteScript("empty"), w, self.reg)
        assert out.word == w


class TestMod10Invariance:
    def test_invariant_under_free_steps_and_relations(self):
        sys_ = cable_p1_system(1, 2)
        reg = RelationRegistry(sys_)
        reg.register(
            "garside_sq_words",
            TwistWord.twists("n1_1", "n1_2").power(6),
            TwistWord.twists("partial1"),
        )
        chain6 = ["n1_1", "n1_2"] * 6
        cases = [
            (TwistWord.twists("n1_1", "n2_1", "n1_2"), Step("commute", 0)),
            (TwistWord.twists("n1_1", ("x1", -1), "x1", "n1_2"), Step("cancel", 1)),
            (TwistWord.twists("n2_1", *chain6),
             Step("apply", 1, relation="garside_sq_words", direction="lr")),
            (TwistWord.twists("partial1", "n2_2"),
             Step("apply", 0, relation="garside_sq_words", direction="rl")),
            (TwistWord.twists("n1_1"), Step("insert", 0, curve="n2_2")),
        ]
        for word, step in cases:
            before = mod10_class(word, sys_)
            out = replay(RewriteScript("one", [step]), word, reg)
            assert mod10_class(out.word, sys_) == before


class TestChainModelEdgeCases:
    def test_genus_zero_has_no_chain(self):
        cm = chain_model(0, 2)
        assert [n for n in cm.curves if n.startswith("c")] == []
        assert len(cm.boundary_labels) == 2

    def test_documented_genus_one_classes(self):
        cm = chain_model(1)
        assert cm.curve("c1").homology == (1, 0)
        assert cm.curve("c2").homology == (0, 1)
        assert cm.curve("c3").homology in ((1, 0), (-1, 0))
