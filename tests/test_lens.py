"""Fiber invariants of torus knots and links in lens spaces."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablekit.lens import (
    LensTorusKnot,
    TrivialTorusKnotError,
    boundary_count,
    boundary_wrap,
    euler_characteristic,
    homological_order,
    is_rational_unknot,
    is_trivial,
)


def lens_params(max_r):
    for r in range(1, max_r + 1):
        if r == 1:
            yield (1, 0)
            continue
        for s in range(1, r):
            if gcd(r, s) == 1:
                yield (r, s)


class TestExamples:
    def test_annular_pages(self):
        K = LensTorusKnot(4, 1, 2, 1)
        assert euler_characteristic(K) == 0
        assert boundary_count(K) == 2
        assert homological_order(K) == 2
        assert boundary_wrap(K) == 1  # each component is a longitude

    def test_twice_punctured_torus(self):
        K = LensTorusKnot(8, 1, 2, 1)
        assert euler_characteristic(K) == -2
        assert boundary_count(K) == 2
        assert homological_order(K) == 4
        assert boundary_wrap(K) == 2

    def test_disk_pages(self):
        for r, s in [(7, 2), (5, 2), (9, 4)]:
            for n in (-2, 0, 3):
                K = LensTorusKnot(r, s, 1, n)
                assert euler_characteristic(K) == 1
                assert boundary_count(K) == 1
                assert homological_order(K) == r
                assert boundary_wrap(K) == r
                assert is_rational_unknot(K)

    def test_trivial(self):
        assert is_trivial(LensTorusKnot(5, 2, 0, 1))
        assert is_trivial(LensTorusKnot(5, 2, 5, 2))
        assert is_trivial(LensTorusKnot(5, 2, -5, -2))
        assert not is_trivial(LensTorusKnot(5, 2, 2, 1))
        with pytest.raises(TrivialTorusKnotError):
            euler_characteristic(LensTorusKnot(5, 2, 0, 1))

    def test_rational_unknot(self):
        assert is_rational_unknot(LensTorusKnot(7, 2, 1, 3))
        assert is_rational_unknot(LensTorusKnot(7, 2, 3, 1))  # 7*1 - 2*3 = 1
        assert not is_rational_unknot(LensTorusKnot(8, 1, 2, 1))

    def test_links_accepted(self):
        K = LensTorusKnot(1, 0, 2, 2)  # Hopf link in the 3-sphere
        assert euler_characteristic(K) == 0
        assert boundary_count(K) == 2
        K = LensTorusKnot(1, 0, 0, 3)  # reduced class is trivial
        assert is_trivial(K)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            LensTorusKnot(0, 0, 1, 1)
        with pytest.raises(ValueError):
            LensTorusKnot(6, 2, 1, 1)
        with pytest.raises(ValueError):
            LensTorusKnot(5, 2, 0, 0)


class TestInvariants:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 100), st.integers(0, 99), st.integers(-100, 100),
           st.integers(-100, 100))
    def test_integrality(self, r, s, k, l):
        if r == 1:
            s = 0
        if s >= r or gcd(r, s) != 1 or (k, l) == (0, 0):
            return
        K = LensTorusKnot(r, s, k, l)
        if is_trivial(K):
            return
        # the closed forms divide exactly: nothing is lost to floor division
        twist = k * s - l * r
        assert euler_characteristic(K) * gcd(r, k) == abs(k) + abs(twist) - abs(k * twist)
        c = K.component_count
        knot_k = k // c
        assert boundary_count(K) * gcd(r, knot_k) == c * gcd(r, knot_k * knot_k)
        assert boundary_count(K) >= 1
        assert (euler_characteristic(K) - boundary_count(K)) % 2 == 0

    def test_disk_detection_exhaustive_r30(self):
        for r, s in lens_params(30):
            for k in range(-10, 11):
                for l in range(-10, 11):
                    if (k, l) == (0, 0) or gcd(abs(k), abs(l)) != 1:
                        continue
                    K = LensTorusKnot(r, s, k, l)
                    if is_trivial(K):
                        continue
                    disk = euler_characteristic(K) == 1 and boundary_count(K) == 1
                    assert disk == is_rational_unknot(K), K

    def test_wrap_times_boundary_is_order(self):
        for r, s in lens_params(24):
            for k in range(-9, 10):
                for l in range(-9, 10):
                    if (k, l) == (0, 0) or gcd(abs(k), abs(l)) != 1:
                        continue
                    K = LensTorusKnot(r, s, k, l)
                    if is_trivial(K):
                        continue
                    assert boundary_wrap(K) * boundary_count(K) == homological_order(K)
