"""Braid words, band generators, and lifts through the double cover."""

import pytest

from braid_reference import (
    BraidError,
    BraidLetter,
    BraidWord,
    braid_Bp,
    garside_half_twist,
    lift_through_double_cover,
    positive_destabilization_certificate,
    r22_braid,
)
from cablekit.curves import CurveSystem, chain_classes


def closure_component_count(word):
    """Cycles of the braid's permutation: the components of its closure."""
    perm, seen, cycles = word.permutation(), set(), 0
    for start in range(word.strand_count):
        if start not in seen:
            cycles += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = perm[k]
    return cycles


def cover_system(g2, boundary=2):
    n = 2 * g2 + 1 + 1
    sys = CurveSystem(genus=g2, boundary_labels=tuple(str(i + 1) for i in range(boundary)))
    chain = [f"e{k}" for k in range(1, 2 * g2 + 2)]
    for name, cls in zip(chain, chain_classes(g2)):
        sys.add_curve(name, cls)
    return sys, chain


class TestBraidWord:
    def test_band_expansion(self):
        w = BraidWord.from_pairs(4, [(1, 4, 1)]).expand_bands()
        assert [(l.i, l.sign) for l in w.letters] == [
            (1, -1), (2, -1), (3, 1), (2, 1), (1, 1)
        ]

    def test_single_adjacent_band_is_standard(self):
        w = BraidWord.from_pairs(2, [(1, 2, 1)])
        assert str(w) == "s1"
        assert w.expand_bands().letters == (BraidLetter(1, 2, 1),)

    def test_permutation_and_closure(self):
        w = garside_half_twist(4)
        assert w.permutation() == (3, 2, 1, 0)
        assert closure_component_count(BraidWord(3)) == 3

    def test_inverse(self):
        w = BraidWord.from_pairs(3, [(1, 1), (2, -1)])
        assert (w * w.inverse()).permutation() == (0, 1, 2)


class TestBp:
    def test_letter_count(self):
        for d in range(1, 6):
            for p in range(2, 6):
                w = braid_Bp(d, p)
                assert len(w) == d * (p - 1)
                assert w.strand_count == d * p
                assert w.is_positive()

    def test_d1_p2_is_sigma1(self):
        w = braid_Bp(1, 2)
        assert len(w) == 1 and (w.letters[0].i, w.letters[0].j) == (1, 2)
        assert w.expand_bands().letters == (BraidLetter(1, 2, 1),)

    def test_figure_example_d4_p3(self):
        w = braid_Bp(4, 3)
        assert w.strand_count == 12
        assert len(w) == 8
        assert closure_component_count(w) == 4

    def test_markov_certificate(self):
        for d in range(1, 5):
            for p in range(2, 5):
                cert = positive_destabilization_certificate(braid_Bp(d, p))
                assert len(cert) == d * (p - 1)

    def test_certificate_rejects_negative(self):
        with pytest.raises(BraidError):
            positive_destabilization_certificate(
                BraidWord.from_pairs(2, [(1, -1)])
            )


class TestR22:
    def test_factorizations_agree(self):
        for g in range(11):
            n = 4 * g + 2
            half = r22_braid(g)
            d1 = garside_half_twist(n, 1, 2 * g + 1)
            band = d1 * braid_Bp(2 * g + 1, 2) * d1.inverse()
            assert half.permutation() == band.permutation()
            sys, chain = cover_system(2 * g)
            mh = sys.word_matrix(lift_through_double_cover(half, chain))
            mb = sys.word_matrix(lift_through_double_cover(band, chain))
            assert mh == mb

    def test_reversal_permutation(self):
        for g in range(11):
            n = 4 * g + 2
            assert r22_braid(g).permutation() == tuple(range(n - 1, -1, -1))


class TestLift:
    def test_positive_letters_lift_to_positive_twists(self):
        sys, chain = cover_system(2)
        w = garside_half_twist(6)
        lifted = lift_through_double_cover(w, chain)
        assert lifted.is_positive()
        assert len(lifted) == len(w)

    def test_functional_reversal(self):
        sys, chain = cover_system(1)
        w = BraidWord.from_pairs(4, [(1, 1), (2, 1)])
        lifted = lift_through_double_cover(w, chain)
        assert [g.curve for g in lifted] == ["e2", "e1"]
