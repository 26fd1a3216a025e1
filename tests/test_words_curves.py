"""Word algebra, the symplectic oracle, lengths, and the relation registry."""

import functools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablekit.curves import (
    CurveSystem,
    CurveSystemError,
    NonExpandableGeneratorError,
    UnresolvedCurveError,
    _apply_turn,
    algebraic_length,
    chain_classes,
    symplectic_pairing,
)
from cablekit.library import lantern_genus3_model
from cablekit.monodromy import (_companion_images, _nodule_block, cable_p1_system,
                                sigma22_cover_system)
from cablekit.rewrite import (
    RelationOracleError,
    RelationRegistry,
    RewriteError,
    RewriteScript,
    Step,
    replay,
)
from cablekit.words import DEHN, FRACTIONAL, Generator, TwistWord, each_letter_once
from braid_reference import extract_transvection_class
from fractions import Fraction


def chain_model(genus: int, extra_boundaries: int = 1) -> CurveSystem:
    """The standard chain c_1..c_{2g+1} on a genus-g surface with boundary,
    closed by check() on its recorded table: the tests' page model.

    For genus 0 there are no chain curves, only boundary-parallel ones.
    Boundary labels are "1", "2", ....
    """
    if genus < 0 or extra_boundaries < 1:
        raise CurveSystemError("need genus >= 0 and at least one boundary")
    labels = tuple(str(i + 1) for i in range(extra_boundaries))
    sys_ = CurveSystem(genus=genus, boundary_labels=labels, name=f"chain_g{genus}")
    if genus > 0:
        classes = chain_classes(genus)
        names = [f"c{i}" for i in range(1, 2 * genus + 2)]
        for name, cls in zip(names, classes):
            sys_.add_curve(name, cls)
        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                sys_.record_intersection(a, names[j], 1 if j == i + 1 else 0)
    sys_.add_boundary_curves()
    for label in labels:
        for i in range(1, 2 * genus + 2):
            if genus > 0:
                sys_.record_intersection(f"bdry_{label}", f"c{i}", 0)
    sys_.check()
    return sys_


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


class TestWordAlgebra:
    def test_composition_order(self):
        w = TwistWord.twists("a").compose(TwistWord.twists("b"))
        assert [g.curve for g in w] == ["a", "b"]  # b acts first

    def test_inverse(self):
        w = TwistWord.twists("a", ("b", -1), "c")
        winv = w.inverse()
        assert [(g.curve, g.sign) for g in winv] == [("c", -1), ("b", 1), ("a", -1)]

    def test_twists_share_one_generator_per_letter(self):
        letters = [("a", 1), ("a", 1), ("b", -1), ("c", 1), ("b", -1)]
        w = TwistWord.twists("a", *letters[1:])
        assert w == TwistWord(tuple(Generator.dehn_twist(c, s) for c, s in letters))
        assert w[0] is w[1] and w[2] is w[4] and len({id(g) for g in w}) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_inverse_shares_one_generator_per_distinct_letter(self, seed):
        # every letter is built afresh, so equal letters start as distinct objects
        pool = [lambda: Generator.dehn_twist("a"), lambda: Generator.dehn_twist("a", -1),
                lambda: Generator.dehn_twist("b", -1),
                lambda: Generator.fractional_boundary("1", Fraction(1, 2)),
                lambda: Generator.fractional_boundary("1", Fraction(-2, 3)),
                lambda: Generator.stabilization_marker("s"),
                lambda: Generator.stabilization_marker("s", -1)]
        rng = random.Random(seed)
        w = TwistWord(tuple(rng.choice(pool)() for _ in range(rng.randrange(0, 40))))
        reference = tuple(g.inverse() for g in reversed(w.generators))
        for inv, copies in ((w.inverse(), 1), (w.power(-3), 3)):
            assert inv.generators == reference * copies
            distinct = []
            for g in inv:
                if g not in distinct:
                    distinct.append(g)
            assert len({id(g) for g in inv}) == len(distinct), seed

    def test_each_letter_once_tells_letters_apart_by_every_field(self):
        # fresh objects throughout; the last two differ only in their amount
        made = [Generator.dehn_twist("a"), Generator.dehn_twist("a", -1),
                Generator.stabilization_marker("a"),
                Generator.fractional_boundary("a", Fraction(1, 2)),
                Generator.fractional_boundary("a", Fraction(1, 3))]
        gens = tuple(Generator.from_json(made[i].to_json()) for i in (4, 0, 3, 1, 0, 4, 2, 3))
        calls = []
        images = each_letter_once(gens, lambda g: calls.append(g) or g.inverse())
        assert calls == [made[i] for i in (4, 0, 3, 1, 2)]
        assert images == tuple(g.inverse() for g in gens)
        assert images[0] is images[5] and images[1] is images[4] and images[2] is images[7]
        assert len({id(g) for g in images}) == 5
        assert TwistWord(gens).inverse().generators == images[::-1]

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
        assert cm.word_delta(TwistWord.twists("c1")) != cm.word_delta(TwistWord.twists(("c1", -1)))

    def test_word_equals_itself(self):
        cm = chain_model(2)
        w = TwistWord.twists("c1", "c3", ("c2", -1))
        assert cm.word_delta(w) == cm.word_delta(w)

    def test_unresolved_curve(self):
        cm = chain_model(1)
        with pytest.raises(UnresolvedCurveError):
            cm.word_matrix(TwistWord.twists("nope"))

    @pytest.mark.parametrize("pair", [("c1", "nope"), ("nope", "c1")])
    def test_check_refuses_a_recorded_unknown_curve(self, pair):
        cm = chain_model(1)
        cm.record_intersection(*pair, 0)
        with pytest.raises(UnresolvedCurveError, match="'nope'"):
            cm.check()

    def test_check_rejects_an_entry_the_classes_do_not_pair_to(self):
        sys_ = CurveSystem(genus=2, boundary_labels=("1",))
        sys_.add_curve("a1", {0: 1})
        sys_.add_curve("a2", {2: -1})
        sys_.record_intersection("a1", "a2", 1)
        assert sys_.recorded_intersection("a1", "a2") == 1
        with pytest.raises(CurveSystemError, match="pair to 0"):
            sys_.check()

    def test_braid_half_twist_rejected(self):
        # braids enter words only lifted to Dehn twists; a braid letter is
        # refused when the word is built, before any oracle sees it
        with pytest.raises(ValueError, match="unknown generator kind 'braid_half'"):
            Generator.from_json({"kind": "braid_half", "curve": "s1"})

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


# -- dense references: the linear algebra the oracle no longer needs ---------


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def pairing_row(u):
    """Row vector so that row . x = <x, u>."""
    row = [0] * len(u)
    for i in range(0, len(u), 2):
        row[i] = u[i + 1]
        row[i + 1] = -u[i]
    return row


def transvection(cls, sign, dim):
    """Matrix of the (signed) twist x -> x + sign*<x, c>*c."""
    row = pairing_row(cls)
    return tuple(
        tuple((1 if i == j else 0) + sign * cls[i] * row[j] for j in range(dim))
        for i in range(dim)
    )


def symplectic_inverse(m):
    """Inverse of a symplectic matrix by the closed form -J m^T J, where J is
    the matrix of the pairing."""
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j) * m[j ^ 1][i ^ 1] for j in range(n)) for i in range(n)
    )


def solve_integer_system(rows, rhs):
    """Solve A x = rhs exactly by Fraction Gauss-Jordan; raises if the
    solution is not unique and integral."""
    n = len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
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


def dense_extract_transvection_class(m):
    """Recover (primitive class, sign) from the dense matrix of a single
    twist by comparing it with both dense transvections."""
    n = len(m)
    cols = [tuple(m[i][j] - (1 if i == j else 0) for i in range(n)) for j in range(n)]
    nonzero = [c for c in cols if any(c)]
    if not nonzero:
        raise CurveSystemError("identity matrix is not a single twist")
    v = nonzero[0]
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    v = tuple(x // g for x in v)
    for sign in (1, -1):
        if m == transvection(v, sign, n):
            return v, sign
    raise CurveSystemError("matrix is not a transvection")


def delta_to_matrix(delta, n):
    """I + delta as a row-major matrix, built independently of the oracle's
    own dense view."""
    return tuple(
        tuple(int(i == j) + delta.get(j, {}).get(i, 0) for j in range(n)) for i in range(n)
    )


def _delta_product(a, b):
    """Slow reference: the delta of (I + a)(I + b), that is a + b + ab,
    written into `a`: the columns of b's support are computed from the old
    `a`, then stored as new columns; the others stay the same objects."""
    new = {}
    for j, bcol in b.items():
        col = dict(a.get(j, ()))
        for r, y in bcol.items():
            col[r] = col.get(r, 0) + y
            for i, x in a.get(r, {}).items():
                col[i] = col.get(i, 0) + x * y
        new[j] = {i: x for i, x in col.items() if x}
    a.update(new)
    for j in [j for j, col in new.items() if not col]:
        del a[j]
    return a


def _delta_power(delta, k):
    """Slow reference: the delta of (I + delta)^k for k >= 1, by repeated
    squaring; the same exact matrix as the power spelled letter by letter."""
    if k == 1:
        return delta
    even = _delta_power(_delta_product(dict(delta), delta), k // 2)
    return _delta_product(even, delta) if k & 1 else even


def turn_delta(turn):
    """P - I as a delta, for the signed permutation P e_t = s e_u of each
    (t, (u, s)) in `turn`, the identity elsewhere."""
    out = {}
    for t, (u, s) in turn.items():
        col = {t: -1}
        col[u] = col.get(u, 0) + s
        if col := {r: x for r, x in col.items() if x}:
            out[t] = col
    return out


def dense_word_matrix(sys_: CurveSystem, word: TwistWord):
    """Reference oracle: the letter-by-letter dense product of one
    transvection per Dehn twist, O(n^3) per letter, raising as the oracle
    does on unknown curves."""
    out = identity_matrix(sys_.dim)
    for gen in word:
        if gen.kind == DEHN:
            step = transvection(sys_.curve(gen.curve).homology, gen.sign, sys_.dim)
        else:
            step = identity_matrix(sys_.dim)
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
    return sigma22_cover_system(key[1])


@st.composite
def _system_and_word(draw, keys=_SYSTEM_KEYS):
    """A system and a word over its curves (zero classes included) mixing
    signs, fractional twists, stabilization markers and runs of equal
    letters."""
    key = draw(st.sampled_from(keys))
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
    @given(_system_and_word(), st.lists(st.tuples(st.sampled_from(("nope", "no_such_curve")),
                                                  st.integers(0, 45)), min_size=1, max_size=3))
    def test_raises_like_dense_reference(self, case, bad):
        # unknown curves raise the reference's error, the first offending
        # letter in word order deciding the message
        sys_, word = case
        gens = list(word)
        for curve, pos in bad:
            gens.insert(min(pos, len(gens)), Generator.dehn_twist(curve, -1))
        bad_word = TwistWord(tuple(gens))
        got = _outcome(lambda: sys_.word_matrix(bad_word))
        assert got == _outcome(lambda: dense_word_matrix(sys_, bad_word))
        assert got[0] is UnresolvedCurveError


class TestWordDelta:
    """The oracle's own form, M - I by sparse columns, against the dense
    letter-by-letter product."""

    @settings(max_examples=150, deadline=None)
    @given(_system_and_word())
    def test_identity_plus_delta_is_the_dense_product(self, case):
        sys_, word = case
        delta = sys_.word_delta(word)
        assert all(col and all(col.values()) for col in delta.values())  # nonzero only
        assert delta_to_matrix(delta, sys_.dim) == dense_word_matrix(sys_, word)

    @pytest.mark.parametrize("g, p", [(4, 4), (5, 5)])
    @pytest.mark.parametrize("seed", range(3))
    def test_identity_plus_delta_on_large_cables(self, g, p, seed):
        sys_ = cable_p1_system(g, p)
        word = _random_word(random.Random(1000 * g + seed), sys_, 40)
        assert delta_to_matrix(sys_.word_delta(word), sys_.dim) == dense_word_matrix(sys_, word)

    @pytest.mark.parametrize("cls", [(1, 0, 0, 0), (0, -1, 0, 0), (1, 0, 1, 0),
                                     (1, 0, -1, 0), (2, -1, 0, 3)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_single_twist_extracts_like_the_dense_reference(self, cls, sign):
        # mixed signs in the pairing row make the orientation of the class
        # depend on which column it is read from: the first, as densely
        sys_ = CurveSystem(genus=2, boundary_labels=("1",))
        sys_.add_curve("c", dict(enumerate(cls)))
        word = TwistWord.twists(("c", sign))
        support, got_sign = extract_transvection_class(sys_.word_delta(word))
        got = tuple(support.get(t, 0) for t in range(sys_.dim))
        assert (got, got_sign) == dense_extract_transvection_class(dense_word_matrix(sys_, word))
        assert got_sign == sign and got in (cls, tuple(-x for x in cls))

    @pytest.mark.parametrize("letters, message", [
        ((), "identity"),
        (("c1", "c3"), "not a transvection"),
        (("c1", "c2"), "not a transvection"),
    ])
    def test_extraction_rejects_what_the_dense_reference_rejects(self, letters, message):
        cm = chain_model(2)
        word = TwistWord.twists(*letters)
        with pytest.raises(CurveSystemError, match=message):
            extract_transvection_class(cm.word_delta(word))
        with pytest.raises(CurveSystemError, match=message):
            dense_extract_transvection_class(dense_word_matrix(cm, word))


def _random_turn(rng, n):
    """A random signed permutation of a random subset of 0..n-1, fixed
    points (sign +1 or -1) included."""
    cols = rng.sample(range(n), rng.randrange(0, n + 1))
    return {t: (u, rng.choice([1, -1])) for t, u in zip(cols, rng.sample(cols, len(cols)))}


def _random_delta(rng, n, fill):
    """A random sparse delta of dimension n with small entries, nonzero only."""
    out = {}
    for _ in range(rng.randrange(0, fill + 1)):
        out.setdefault(rng.randrange(n), {})[rng.randrange(n)] = rng.choice([-2, -1, 1, 2])
    return out


class TestApplyTurn:
    """_apply_turn, the block kernel, right-multiplies by a signed
    permutation P; the slow reference is the general product with P - I."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_product_with_p_minus_i(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            n = rng.randrange(1, 9)
            delta, turn = _random_delta(rng, n, 2 * n), _random_turn(rng, n)
            want = _delta_product({j: dict(col) for j, col in delta.items()}, turn_delta(turn))
            _apply_turn(delta, turn)
            assert delta == want, (seed, turn)
            assert all(col and all(col.values()) for col in delta.values())  # nonzero only

    @pytest.mark.parametrize("delta, turn, want", [
        # P e_0 = -e_1 on a_1 = -e_0 - e_1: column 0 is -(e_1 + a_1) - e_0, whose
        # entries at row u = 1 and row t = 0 both cancel; the old column 0 goes
        ({0: {1: 5}, 1: {0: -1, 1: -1}}, {0: (1, -1)}, {1: {0: -1, 1: -1}}),
        # a fixed point, P e_0 = e_0: the delta is unchanged
        ({0: {0: 3, 1: 1}}, {0: (0, 1)}, {0: {0: 3, 1: 1}}),
        # P e_0 = -e_0 on a_0 = 2 e_0: column 0 is -(e_0 + 2 e_0) - e_0
        ({0: {0: 2}}, {0: (0, -1)}, {0: {0: -4}}),
        # I + delta = P^-1 for the swap with signs: the product is I, every column empties
        ({0: {0: -1, 1: 1}, 1: {1: -1, 0: -1}}, {0: (1, -1), 1: (0, 1)}, {}),
    ])
    def test_a_cancelling_entry_leaves_no_zero(self, delta, turn, want):
        slow = _delta_product({j: dict(col) for j, col in delta.items()}, turn_delta(turn))
        _apply_turn(delta, turn)
        assert delta == slow == want


def _count_word_delta_letters(monkeypatch) -> list[int]:
    """Patch CurveSystem.word_delta to add the length of every word it
    evaluates to the one-entry list returned."""
    counted = [0]
    word_delta = CurveSystem.word_delta

    def counting(self, word):
        counted[0] += len(word)
        return word_delta(self, word)

    monkeypatch.setattr(CurveSystem, "word_delta", counting)
    return counted


class TestChainRelation:
    """_nodule_block checks the chain relation of c1..c2g once per genus, in
    closed form: the chain word sends v_1..v_2g as the companion matrix of
    (t^(2g+1) + 1)/(t + 1) does.  The slow reference _delta_power squares a
    delta up to a power, against the letter-by-letter word_delta of the power."""

    @settings(max_examples=150, deadline=None)
    @given(_system_and_word([key for key in _SYSTEM_KEYS if key[0] != "sigma22"]),
           st.integers(1, 20))
    def test_delta_power_matches_the_letter_by_letter_delta(self, case, k):
        sys_, word = case
        want = sys_.word_delta(word.power(k))
        with pytest.MonkeyPatch.context() as mp:
            counted = _count_word_delta_letters(mp)
            assert _delta_power(sys_.word_delta(word), k) == want
        assert counted[0] == len(word)

    @pytest.mark.parametrize("p", [1, 3])
    def test_the_chain_fixes_the_power(self, p):
        # (n{i}_1 n{i}_2)^6 = T_partial{i} (Farb-Margalit, Prop. 4.12); on
        # homology the powers 12 and 18 read the same, but the stored chain
        # has two curves and so counts 2 * 6
        sys_ = cable_p1_system(1, p)
        for i in range(1, p + 1):
            assert sys_.expansions[f"partial{i}"] == (f"n{i}_1", f"n{i}_2")
            chain = TwistWord.twists(*sys_.expansions[f"partial{i}"])
            assert all(sys_.word_delta(chain.power(k)) == {} for k in (6, 12, 18))
            assert algebraic_length(TwistWord.twists(f"partial{i}"), sys_) == 12

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_chain_relation_holds_and_its_near_misses_fail(self, g):
        chain = TwistWord.twists(*[f"c{k}" for k in range(1, 2 * g + 1)])
        # the letter-by-letter reference: the chain relation of c1..c2g holds
        # on homology, where bdry_1 has zero class
        cm = chain_model(g)
        assert cm.word_delta(TwistWord.twists("bdry_1")) == {}
        assert cm.word_delta(chain.power(4 * g + 2)) == {}
        _nodule_block(g)
        delta = cm.word_delta(chain)
        assert _delta_power(delta, 4 * g + 1) and _delta_power(delta, 4 * g + 3)
        sys_ = cable_p1_system(g, 1)
        assert algebraic_length(TwistWord.twists("partial1"), sys_) == 2 * g * (4 * g + 2)

    @pytest.mark.parametrize("g", range(1, 9))
    def test_the_closed_form_powers_to_the_chain_relation(self, g):
        # the companion matrix C of (t^(2g+1) + 1)/(t + 1), on v_1..v_2g as
        # coordinates 0..2g-1: C^(2g+1) = -I and C^(4g+2) = I; the chain word's
        # delta, which _nodule_block found to act as C, powers the same way
        n = 2 * g
        companion = {k: {k: -1, k + 1: 1} for k in range(n - 1)}
        companion[n - 1] = {k - 1: (-1) ** k for k in range(1, n)}
        minus_two = {t: {t: -2} for t in range(n)}
        _nodule_block(g)
        chain = chain_model(g).word_delta(TwistWord.twists(*(f"c{k}" for k in range(1, n + 1))))
        for delta in (companion, chain):
            assert _delta_power(dict(delta), 2 * g + 1) == minus_two, g
            assert _delta_power(dict(delta), 4 * g + 2) == {}, g
            assert all(_delta_power(dict(delta), k) for k in range(1, 2 * g + 1)), g

    @pytest.mark.parametrize("g", range(1, 9))
    def test_the_closed_form_is_the_letter_by_letter_image(self, g):
        # the images _companion_images gives are those of the chain word,
        # evaluated letter by letter, on the dense reference
        classes = chain_classes(g)[:-1]
        cm = chain_model(g)
        m = dense_word_matrix(cm, TwistWord.twists(*(f"c{k}" for k in range(1, 2 * g + 1))))
        for v, want in zip(classes, _companion_images(classes), strict=True):
            image = mat_vec(m, tuple(v.get(t, 0) for t in range(2 * g)))
            assert image == tuple(want.get(t, 0) for t in range(2 * g)), g

    @pytest.mark.parametrize("g, p", [(4, 4), (1, 1000)])
    def test_cold_cable_system_evaluates_the_block_chain_once(self, g, p, monkeypatch):
        # the chain relation is checked once per genus, on the block: the 2g
        # letters of the chain, whose images of v_1..v_2g are compared with
        # the companion closed form; layout 1's Garside block has a closed
        # form, so none of its (4g+1)(2g+1) letters is evaluated; a build at
        # a cached genus evaluates nothing
        _nodule_block.cache_clear()
        counted = _count_word_delta_letters(monkeypatch)
        cable_p1_system(g, p)
        assert counted[0] == 2 * g
        cable_p1_system(g, p + 1)
        assert counted[0] == 2 * g


def reference_chain_classes(count, genus):
    """Reference: chain_classes with every pair of classes checked."""
    out = [{2 * (idx // 2) - 1: (-1) ** (idx // 2 + 1)} if idx % 2 == 0 else
           {t: (-1) ** (idx // 2) for t in (idx - 3, idx - 1) if 0 <= t < 2 * genus}
           for idx in range(1, count + 1)]
    for i, u in enumerate(out):
        for j in range(i + 1, len(out)):
            got = symplectic_pairing(u, out[j])
            if abs(got) != (1 if j == i + 1 else 0):
                raise CurveSystemError(f"chain solver failed at ({i+1},{j+1}): {got}")
    return out


class TestChainClasses:
    def test_agrees_with_the_all_pairs_reference(self):
        # chain_classes pairs nothing itself; the reference pairs every pair
        for genus in range(21):
            assert chain_classes(genus) == reference_chain_classes(2 * genus + 1, genus), genus


class TestSparseClasses:
    def test_map_form_keeps_the_nonzero_entries_in_order(self):
        sys_ = CurveSystem(genus=2, boundary_labels=("1",))
        sys_.add_curve("v", {2: -2, 0: 1, 3: 0})
        assert sys_.curve("v").homology == (1, 0, -2, 0)
        assert sys_.curve("v").support == {0: 1, 2: -2}

    @pytest.mark.parametrize("cls", [{4: 1}, {-1: 1}])
    def test_coordinates_outside_the_surface_are_rejected(self, cls):
        sys_ = CurveSystem(genus=2, boundary_labels=("1",))
        with pytest.raises(CurveSystemError, match="class for 'w'"):
            sys_.add_curve("w", cls)

    def test_a_name_declared_twice_is_rejected(self):
        sys_ = CurveSystem(genus=1, boundary_labels=("1",))
        sys_.add_curve("v", {0: 1})
        with pytest.raises(CurveSystemError, match="^curve 'v' already declared$"):
            sys_.add_curve("v", {1: 1})
        assert sys_.curve("v").support == {0: 1}


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
        assert sys_.word_delta(rel.lhs) == sys_.word_delta(rel.rhs)
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
        script = RewriteScript("t", (Step("cancel", 1),))
        w = TwistWord.twists("c1", "c2", ("c2", -1), "c3")
        out = replay(script, w, self.reg)
        assert [g.curve for g in out.word] == ["c1", "c3"]

    def test_cancel_requires_inverse_pair(self):
        script = RewriteScript("t", (Step("cancel", 0),))
        with pytest.raises(RewriteError):
            replay(script, TwistWord.twists("c1", "c2"), self.reg)

    def test_commute_requires_recorded_zero(self):
        ok = RewriteScript("t", (Step("commute", 0),))
        out = replay(ok, TwistWord.twists("c1", "c3"), self.reg)
        assert [g.curve for g in out.word] == ["c3", "c1"]
        with pytest.raises(RewriteError):
            replay(ok, TwistWord.twists("c1", "c2"), self.reg)

    def test_insert(self):
        script = RewriteScript("t", (Step("insert", 1, curve="c4"),))
        out = replay(script, TwistWord.twists("c1", "c2"), self.reg)
        assert [((g.curve), g.sign) for g in out.word] == [
            ("c1", 1), ("c4", 1), ("c4", -1), ("c2", 1)
        ]

    def test_apply_exact_match_required(self):
        self.reg.register(
            "sq", TwistWord.twists("c1", "c1"), TwistWord.twists("c1").power(2)
        )
        script = RewriteScript("t", (Step("apply", 0, relation="sq"),))
        with pytest.raises(RewriteError):
            replay(script, TwistWord.twists("c2", "c1"), self.reg)

    def test_empty_script_is_identity(self):
        w = TwistWord.twists("c1", ("c5", -1))
        out = replay(RewriteScript("t", ()), w, self.reg)
        assert out.word == w

    @pytest.mark.parametrize("step, message", [
        (Step("apply", 0, relation="nope"), "^relation 'nope' is not registered$"),
        (Step("commute", 1), "^no adjacent pair at 1$"),
        (Step("swap", 0), "^unknown step kind 'swap'$"),
        (Step("commute", -1), "^position -1 is outside the word of length 2$"),
        (Step("insert", 7, curve="c4"), "^position 7 is outside the word of length 2$"),
    ], ids=["unregistered", "no-pair", "unknown-kind", "commute-before-start",
            "insert-past-end"])
    def test_a_step_that_cannot_fire_is_refused(self, step, message):
        with pytest.raises(RewriteError, match=message):
            replay(RewriteScript("t", (step,)), TwistWord.twists("c1", "c3"), self.reg)

    def test_a_wrong_unchecked_entry_fails_the_final_oracle_check(self):
        # c1 and c2 meet once; a zero recorded without check() lets the
        # commute fire, and the replay's final comparison refuses the word
        sys_ = chain_model(1)
        sys_.record_intersection("c1", "c2", 0)
        script = RewriteScript("bad_commute", (Step("commute", 0),))
        with pytest.raises(RewriteError,
                           match="^replay of 'bad_commute' changed the homology matrix$"):
            replay(script, TwistWord.twists("c1", "c2"), RelationRegistry(sys_))

    def test_a_final_word_other_than_expect_is_refused(self):
        script = RewriteScript("swap", (Step("commute", 0),))
        word = TwistWord.twists("c1", "c3")
        message = f"replay of 'swap' produced {TwistWord.twists('c3', 'c1')}, expected {word}"
        with pytest.raises(RewriteError, match=f"^{re.escape(message)}$"):
            replay(script, word, self.reg, expect=word)


class TestMod10Invariance:
    def test_invariant_under_free_steps_and_relations(self):
        sys_ = cable_p1_system(1, 2)
        # the cable page records nothing; the commute case reads this one
        # entry, which check() confirms against the classes
        sys_.record_intersection("n1_1", "x1", 0)
        sys_.check()
        reg = RelationRegistry(sys_)
        reg.register(
            "garside_sq_words",
            TwistWord.twists("n1_1", "n1_2").power(6),
            TwistWord.twists("partial1"),
        )
        reg.register(
            "garside_sq_words_reversed",
            TwistWord.twists("partial1"),
            TwistWord.twists("n1_1", "n1_2").power(6),
        )
        chain6 = ["n1_1", "n1_2"] * 6
        cases = [
            (TwistWord.twists("n1_1", "x1", "n1_2"), Step("commute", 0)),
            (TwistWord.twists("n1_1", ("x1", -1), "x1", "n1_2"), Step("cancel", 1)),
            (TwistWord.twists("n2_1", *chain6),
             Step("apply", 1, relation="garside_sq_words")),
            (TwistWord.twists("partial1", "n2_2"),
             Step("apply", 0, relation="garside_sq_words_reversed")),
            (TwistWord.twists("n1_1"), Step("insert", 0, curve="n2_2")),
        ]
        for word, step in cases:
            before = mod10_class(word, sys_)
            out = replay(RewriteScript("one", (step,)), word, reg)
            assert mod10_class(out.word, sys_) == before


class TestChainModelEdgeCases:
    def test_genus_zero_has_no_chain(self):
        cm = chain_model(0, 2)
        assert [n for n in cm.curves if n.startswith("c")] == []
        assert len(cm.boundary_labels) == 2

    @pytest.mark.parametrize("genus, boundaries", [(-1, 1), (1, 0)])
    def test_a_negative_genus_or_no_boundary_is_refused(self, genus, boundaries):
        with pytest.raises(CurveSystemError, match="^need genus >= 0 and at least one boundary$"):
            chain_model(genus, boundaries)

    def test_documented_genus_one_classes(self):
        cm = chain_model(1)
        assert cm.curve("c1").homology == (1, 0)
        assert cm.curve("c2").homology == (0, 1)
        assert cm.curve("c3").homology in ((1, 0), (-1, 0))
