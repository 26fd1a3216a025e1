"""Slope engine: continued fractions, Farey paths, exceptional slopes."""

import itertools
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablekit.slopes import (
    MERIDIAN,
    NegContinuedFraction,
    Slope,
    SlopeDomainError,
    bfs_interval_path_length,
    exceptional_slopes,
    farey_shortest_path,
    is_exceptional_slope,
    mediant_farey_graph,
    neg_cont_frac,
)


def eval_cont_frac(cf):
    """Evaluate the nested fraction.  Raises on a vanishing partial denominator."""
    x_num, x_den = 0, 1  # value hanging below the innermost term
    for r in reversed(cf.terms):
        den_num = r * x_den - x_num  # r - x, over denominator x_den
        if den_num == 0:
            raise SlopeDomainError(f"partial denominator vanishes in {list(cf.terms)}")
        x_num, x_den = x_den, den_num
    return Slope(x_num, x_den)


def farey_neighbors(a, b):
    """True iff the two slopes share an edge of the Farey tessellation:
    |q_a*p_b - q_b*p_a| = 1; the meridian 1/0 is adjacent to every integer."""
    (qa, pa), (qb, pb) = a.vector(), b.vector()
    return abs(qa * pb - qb * pa) == 1


def increment_rule_exceptional(seifert):
    """The exceptional slopes by the increment rule: add 1 to the last term
    of the canonical expansion, collapse trailing -1 terms by
    [..., r, -1] = [..., r + 1], evaluate, and stop at -1."""
    if seifert == Slope(0):
        return [Slope(-1)]
    out = []
    terms = list(neg_cont_frac(seifert).terms)
    while True:
        terms[-1] += 1
        while len(terms) > 1 and terms[-1] == -1:
            terms.pop()
            terms[-1] += 1
        assert all(t <= -2 for t in terms) or terms == [-1], terms
        out.append(eval_cont_frac(NegContinuedFraction(terms)))
        if out[-1] == Slope(-1):
            return out


def slopes_in_window(max_den):
    for p in range(2, max_den + 1):
        for q in range(-p + 1, 0):
            if gcd(-q, p) == 1:
                yield Slope(q, p)


class TestSlope:
    def test_normalization(self):
        assert Slope(2, 4) == Slope(1, 2)
        assert Slope(-2, -4) == Slope(1, 2)
        assert Slope(3, -6) == Slope(-1, 2)
        assert Slope(-5, 0) == MERIDIAN
        assert str(Slope(1, 0)) == "inf"
        assert str(Slope(-3, 7)) == "-3/7"
        assert str(Slope(4, 1)) == "4"
        # the assertion messages of these tests print slopes by their repr
        assert repr(Slope(2, -6)) == "Slope(-1/3)" and repr(MERIDIAN) == "Slope(inf)"

    def test_parse_round_trip(self):
        for text in ["-3/7", "5", "inf", "0", "-1"]:
            assert str(Slope.parse(text)) == text

    def test_order(self):
        assert Slope(-1, 2) < Slope(-1, 3) < Slope(0) < Slope(3, 2)
        with pytest.raises(SlopeDomainError):
            MERIDIAN < Slope(0)

    def test_zero_over_zero_rejected(self):
        with pytest.raises(SlopeDomainError):
            Slope(0, 0)


class TestContinuedFractions:
    def test_examples(self):
        assert neg_cont_frac(Slope(-1, 2)).terms == (-2,)
        assert neg_cont_frac(Slope(-3, 7)).terms == (-3, -2, -2)
        assert neg_cont_frac(Slope(-2, 3)).terms == (-2, -2)

    def test_eval_examples(self):
        assert eval_cont_frac(NegContinuedFraction([-2])) == Slope(-1, 2)
        assert eval_cont_frac(NegContinuedFraction([-2, -2, -2])) == Slope(-3, 4)
        # collapse convention: [-3, -2, -1] = [-3, -1] = [-2]
        assert eval_cont_frac(NegContinuedFraction([-3, -2, -1])) == Slope(-1, 2)

    def test_eval_division_by_zero(self):
        with pytest.raises(SlopeDomainError, match="partial denominator vanishes"):
            eval_cont_frac(NegContinuedFraction([-2, -1, -2]))

    def test_domain(self):
        for bad in [Slope(0), Slope(-1), Slope(1, 3), Slope(-3, 2), MERIDIAN]:
            with pytest.raises(SlopeDomainError):
                neg_cont_frac(bad)

    def test_round_trip_and_canonical_to_200(self):
        for s in slopes_in_window(200):
            cf = neg_cont_frac(s)
            assert all(t <= -2 for t in cf.terms)
            assert eval_cont_frac(cf) == s


class TestFarey:
    def test_neighbors_examples(self):
        assert farey_neighbors(Slope(-1), Slope(-1, 2))
        assert not farey_neighbors(Slope(-1), Slope(-1, 3))
        assert farey_neighbors(Slope(-2, 5), Slope(-1, 3))
        assert farey_neighbors(MERIDIAN, Slope(7))

    def test_path_examples(self):
        assert farey_shortest_path(Slope(-1), Slope(-1, 3)) == [
            Slope(-1), Slope(-1, 2), Slope(-1, 3)
        ]
        assert farey_shortest_path(Slope(-1), Slope(-3, 7)) == [
            Slope(-1), Slope(-1, 2), Slope(-3, 7)
        ]
        a = Slope(5, 7)
        assert farey_shortest_path(a, a) == [a]

    def test_path_rejects_meridian(self):
        with pytest.raises(SlopeDomainError):
            farey_shortest_path(MERIDIAN, Slope(0))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-40, 40), st.integers(1, 40),
        st.integers(-40, 40), st.integers(1, 40),
    )
    def test_path_validity_and_reversal(self, qa, pa, qb, pb):
        a, b = Slope(qa, pa), Slope(qb, pb)
        path = farey_shortest_path(a, b)
        assert path[0] == a and path[-1] == b
        for u, v in zip(path, path[1:]):
            assert farey_neighbors(u, v)
        lo, hi = min(a, b), max(a, b)
        assert all(lo <= v <= hi for v in path)
        assert farey_shortest_path(b, a) == path[::-1]

    def test_interval_vs_unconstrained_geodesics_differ(self):
        # the interval path from -1 to -7/10 has three edges even though the
        # unconstrained Farey graph contains the shorter detour through -2/3
        path = farey_shortest_path(Slope(-1), Slope(-7, 10))
        assert path == [Slope(-1), Slope(-3, 4), Slope(-5, 7), Slope(-7, 10)]
        assert farey_neighbors(Slope(-1), Slope(-2, 3))
        assert farey_neighbors(Slope(-2, 3), Slope(-7, 10))

    def test_bfs_oracle_small(self):
        graph = mediant_farey_graph(8)
        verts = sorted(graph, key=lambda s: (s.numerator, s.denominator))
        for a, b in itertools.combinations(verts, 2):
            want = bfs_interval_path_length(graph, a, b)
            got = len(farey_shortest_path(a, b)) - 1
            assert got == want, (a, b, got, want)
        for a in verts:
            assert bfs_interval_path_length(graph, a, a) == 0 == len(farey_shortest_path(a, a)) - 1

    def test_bfs_oracle_refusals(self):
        unordered = "^the meridian is not ordered against finite slopes$"
        with pytest.raises(SlopeDomainError, match=unordered):
            bfs_interval_path_length(mediant_farey_graph(3), MERIDIAN, Slope(1))
        # the meridian as a neighbour is met before the end, two edges away
        graph = {Slope(0): {MERIDIAN, Slope(1, 2)}, Slope(1, 2): {Slope(1)}}
        with pytest.raises(SlopeDomainError, match=unordered):
            bfs_interval_path_length(graph, Slope(0), Slope(1))
        with pytest.raises(SlopeDomainError, match="^no interval path from 0 to 5 in bounded"):
            bfs_interval_path_length(mediant_farey_graph(3), Slope(0), Slope(5))


class TestExceptional:
    def test_examples(self):
        assert exceptional_slopes(Slope(0)) == [Slope(-1)]
        assert exceptional_slopes(Slope(-1, 3)) == [Slope(-1, 2), Slope(-1)]
        assert exceptional_slopes(Slope(-2, 3)) == [Slope(-1)]

    def test_domain(self):
        for bad in [Slope(1, 3), Slope(-5, 4), MERIDIAN, Slope(2)]:
            with pytest.raises(SlopeDomainError):
                exceptional_slopes(bad)
            with pytest.raises(SlopeDomainError):
                is_exceptional_slope(Slope(-1), bad)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_membership_matches_the_list(self, data):
        # every Seifert slope with denominator <= 60, against slopes drawn
        # from its exceptional list, lattice points next to a listed one (on
        # the line of a run but past its end, say) and at random
        seifert = data.draw(st.sampled_from([Slope(0), *slopes_in_window(60)]))
        listed = exceptional_slopes(seifert)
        near = st.builds(lambda m, a, b: (m.numerator + a, m.denominator + b),
                         st.sampled_from(listed), st.integers(-2, 2), st.integers(-2, 2))
        slope = data.draw(st.one_of(
            st.sampled_from(listed + [seifert, MERIDIAN]),
            near.filter(lambda v: v != (0, 0)).map(lambda v: Slope(*v)),
            st.builds(Slope, st.integers(-200, 200), st.integers(1, 120)),
        ))
        assert is_exceptional_slope(slope, seifert) == (slope in listed)

    def test_membership_memory_does_not_grow_with_the_path(self):
        # the path from -1/r to -1 has r vertices on one straight run
        r = 10**6
        tracemalloc.start()
        try:
            found = [is_exceptional_slope(Slope(-1, k), Slope(-1, r)) for k in (1, 2, r - 1, r)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found == [True, True, True, False]
        assert peak < 1 << 20

    def test_agreement_with_increment_rule_to_200(self):
        for s in slopes_in_window(200):
            assert exceptional_slopes(s) == increment_rule_exceptional(s), s

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 10**4).flatmap(
        lambda p: st.tuples(st.integers(1, p - 1), st.just(p))))
    def test_agreement_with_increment_rule_large(self, qp):
        s = Slope(-qp[0], qp[1])
        assert exceptional_slopes(s) == increment_rule_exceptional(s)

    def test_always_ends_at_minus_one(self):
        for s in slopes_in_window(60):
            exc = exceptional_slopes(s)
            assert exc[-1] == Slope(-1)
            assert all(Slope(-1) <= e < s for e in exc)


class TestCanonicalEvaluationWindow:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-9, -2), min_size=1, max_size=12))
    def test_canonical_terms_evaluate_inside_window(self, terms):
        value = eval_cont_frac(NegContinuedFraction(terms))
        assert Slope(-1) < value < Slope(0)
        assert neg_cont_frac(value).terms == tuple(terms)


class TestMediantGraphIntegrity:
    def test_edges_satisfy_the_tessellation_criterion(self):
        graph = mediant_farey_graph(9)
        for a, nbrs in graph.items():
            for b in nbrs:
                assert farey_neighbors(a, b)
                assert a in graph[b]
