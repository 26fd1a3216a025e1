"""Cabling verdicts, Hopf deltas, cabled pages, resolution, surgery."""

import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablekit.classify import (
    CableCoefficients,
    CableError,
    CableSign,
    VerdictKind,
    cable_sign,
    cabled_page,
    classify_cable,
    hopf_delta,
    induced_open_book_from_surgery,
    resolve,
    stabilization_count_pq_from_p1,
    surgery_admissible,
)
from cablekit.lens import LensTorusKnot, euler_characteristic
from cablekit.openbook import (BindingComponent, OpenBookError, RationalOpenBook, reframe,
                               validate, window_shift)
from cablekit.slopes import Slope, exceptional_slopes
from cablekit.words import Generator, TwistWord
from fractions import Fraction


def cabled_page_assembled(book, coeffs):
    """Independent Euler characteristic via lens-space torus-link fibers:
    |p| page copies plus, per component, the local fiber of the (p, q_i)
    torus link in the three-sphere minus its |p| nodule disks."""
    coeffs.validate(book)
    chi = abs(coeffs.pairs[0][0]) * book.page_euler_char
    for p, q in coeffs.pairs:
        chi += euler_characteristic(LensTorusKnot(1, 0, p, q)) - abs(p)
    return chi


def lens_model_resolve(book, l_coeffs):
    """The resolution counted from the lens-space model, the slow reference
    for `resolve`: per rational component, read in its window with n =
    gcd(r, s), the fiber of the (r, l)-curve on the Heegaard torus of the
    lens space (r/n, s/n), put in lens position (parameter s/n moved by r/n,
    l by r, unless s = 0), is glued along the n old boundary circles; the
    boundary circles are tallied by hand."""
    rational = [i for i, c in enumerate(book.components) if c.order > 1]
    if len(l_coeffs) != len(rational):
        raise OpenBookError(
            f"need one l per rational component ({len(rational)}), got {len(l_coeffs)}"
        )
    chi, boundary = book.page_euler_char, book.boundary_count_of_page
    components = [c for c in book.components if c.order == 1]
    multitwist_ok, new_curves = True, []
    for idx, l in zip(rational, l_coeffs):
        k = window_shift(book.components[idx])
        comp = reframe(book.components[idx], k)
        r, s, n = comp.order, comp.seifert_numerator, comp.multiplicity
        l += k * r
        if l <= s:
            raise OpenBookError(
                f"resolution slope l={l} must exceed the Seifert numerator {s} (in the window)"
            )
        multitwist_ok = multitwist_ok and (s, l) == (-1, 0)
        r_hat, s_hat = r // n, s // n
        shift = 0 if s_hat == 0 else 1
        K = LensTorusKnot(r_hat, s_hat + shift * r_hat, r, l + shift * r)
        chi += euler_characteristic(K) - n
        boundary += gcd(r, l) - n
        for j in range(gcd(r, l)):
            components.append(BindingComponent(order=1, seifert_numerator=0))
            new_curves.append(f"rb{idx}_{j + 1}")
    genus2 = 2 - chi - boundary
    if genus2 % 2:
        raise OpenBookError(f"non-integral genus from chi={chi}, boundary={boundary}")
    word = book.monodromy if not rational else None
    if book.monodromy is not None and rational and multitwist_ok:
        word = TwistWord(tuple(g for g in book.monodromy if g.kind != "fractional")
                         + tuple(Generator.dehn_twist(c) for c in new_curves))
    return RationalOpenBook(genus2 // 2, tuple(components), monodromy=word,
                            metadata=book.metadata).with_metadata(
        contact="unchanged by resolution (positive cables)")


def resolution_outcome(resolver, book, l_coeffs):
    """The resolved book, or the refusal's message."""
    try:
        return resolver(book, l_coeffs)
    except OpenBookError as exc:
        return f"refused: {exc}"


def integral_book(genus=1, components=1, word=None):
    return RationalOpenBook(
        genus=genus,
        components=tuple(BindingComponent(1, 0) for _ in range(components)),
        monodromy=word,
    )


def rational_book(r, s, genus=1):
    return RationalOpenBook(genus=genus, components=(BindingComponent(r, s),))


class TestCableSign:
    def test_examples(self):
        assert cable_sign(Slope(3, 2), Slope(0)) is CableSign.POSITIVE
        assert cable_sign(Slope(-2, 3), Slope(-1, 3)) is CableSign.NEGATIVE


class TestCoefficients:
    def test_validation(self):
        book = integral_book()
        with pytest.raises(CableError):
            CableCoefficients(((0, 1),)).validate(book)
        with pytest.raises(CableError):
            CableCoefficients(((1, 0),)).validate(book)  # Seifert slope 0/1
        two = integral_book(components=2)
        with pytest.raises(CableError):
            CableCoefficients(((2, 1), (-2, 1))).validate(two)
        with pytest.raises(CableError):
            CableCoefficients(((2, 1),)).validate(two)

    def test_parse(self):
        assert CableCoefficients.parse("2,-1;1,1").pairs == ((2, -1), (1, 1))


class TestClassify:
    def test_integral_positive(self):
        v = classify_cable(integral_book(), CableCoefficients(((2, 3),)))
        assert v.kind is VerdictKind.SAME_CONTACT
        assert v.hopf_delta == 0

    def test_rational_negative_nonexceptional_overtwisted(self):
        book = rational_book(3, -1)
        v = classify_cable(book, CableCoefficients(((3, -2),)))
        assert v.kind is VerdictKind.OVERTWISTED
        assert v.lutz_recipe

    def test_rational_negative_exceptional(self):
        book = rational_book(3, -1)
        v = classify_cable(book, CableCoefficients(((2, -1),)))
        assert v.kind is VerdictKind.EXCEPTIONAL_TIGHT_POSSIBLE
        assert "virtually overtwisted" in v.note

    def test_exceptional_verdict_memory_does_not_grow_with_r(self):
        book = rational_book(10**6, -1)
        tracemalloc.start()
        try:
            v = classify_cable(book, CableCoefficients(((2, -1),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.kind is VerdictKind.EXCEPTIONAL_TIGHT_POSSIBLE
        assert peak < 1 << 20

    def test_rational_unknot_cable(self):
        book = rational_book(3, -1, genus=0)  # a disk page: a rational unknot
        # 3*(-2) - (-1)*5 = -1
        v = classify_cable(book, CableCoefficients(((5, -2),)))
        assert v.kind is VerdictKind.RATIONAL_UNKNOT_CABLE

    def test_disk_page_farey_neighbour_cables_are_rational_unknot_cables(self):
        # every disk page with r <= 9 in its window, cabled with 2 <= |p| <= 6
        # and |q| <= 6 along a pair that, mirrored to p > 0, has rq - ps = -1;
        # the other negative pairs of the loop, rq - ps < -1 mirrored, are
        # decided like any negative cable
        hits, others = 0, 0
        for r in range(1, 10):
            for s in range(1 - r, 1):
                if gcd(r, s) != 1:
                    continue
                book = RationalOpenBook(0, (BindingComponent(r, s),))
                for p in (*range(-6, -1), *range(2, 7)):
                    for q in range(-6, 7):
                        det = (1 if p > 0 else -1) * (r * q - p * s)
                        if det == -1:
                            hits += 1
                            v = classify_cable(book, CableCoefficients(((p, q),)))
                            assert v.kind is VerdictKind.RATIONAL_UNKNOT_CABLE, (r, s, p, q)
                        elif det < 0:
                            others += 1
                            v = classify_cable(book, CableCoefficients(((p, q),)))
                            assert v.per_component_signs == (CableSign.NEGATIVE,), (r, s, p, q)
                            assert v.kind is not VerdictKind.RATIONAL_UNKNOT_CABLE, (r, s, p, q)
        assert hits == 54
        assert others == 1206

    def test_non_coprime_negative_overtwisted(self):
        v = classify_cable(integral_book(), CableCoefficients(((4, -2),)))
        assert v.kind is VerdictKind.OVERTWISTED

    def test_reversed(self):
        v = classify_cable(integral_book(), CableCoefficients(((-2, -3),)))
        assert v.kind is VerdictKind.REVERSED_CONTACT

    def test_p_equals_one_exempt(self):
        v = classify_cable(integral_book(), CableCoefficients(((1, -5),)))
        assert v.kind is VerdictKind.SAME_CONTACT

    def test_unknot_p_minus_one_cable_routes_to_rational_unknot(self):
        unknot = RationalOpenBook(genus=0, components=(BindingComponent(1, 0),))
        v = classify_cable(unknot, CableCoefficients(((5, -1),)))
        assert v.kind is VerdictKind.RATIONAL_UNKNOT_CABLE

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(1, 6), st.integers(-6, 6)), min_size=1, max_size=4),
    )
    def test_sign_dichotomy(self, genus, raw):
        comps, pairs = [], []
        for p, q in raw:
            comps.append(BindingComponent(1, 0))
            pairs.append((p, abs(q) + 1))  # strictly positive slope
        book = RationalOpenBook(genus=genus, components=tuple(comps))
        v = classify_cable(book, CableCoefficients(tuple(pairs)))
        assert v.kind is VerdictKind.SAME_CONTACT

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(-5, 5)), min_size=1, max_size=3)
    )
    def test_orientation_symmetry(self, raw):
        comps = tuple(BindingComponent(1, 0) for _ in raw)
        book = RationalOpenBook(genus=2, components=comps)
        pairs = []
        for p, q in raw:
            if Slope(q, p) == Slope(0):
                q += 1
            pairs.append((p, q))
        v_plus = classify_cable(book, CableCoefficients(tuple(pairs)))
        v_minus = classify_cable(
            book, CableCoefficients(tuple((-p, -q) for p, q in pairs))
        )
        swap = {
            VerdictKind.SAME_CONTACT: VerdictKind.REVERSED_CONTACT,
            VerdictKind.REVERSED_CONTACT: VerdictKind.SAME_CONTACT,
        }
        assert v_minus.kind == swap.get(v_plus.kind, v_plus.kind)

    def test_exceptional_set_consistency(self):
        for r, s in [(3, -1), (5, -2), (7, -3), (4, -3)]:
            if gcd(r, -s) != 1:
                continue
            book = rational_book(r, s)
            window = Slope(s, r)
            exceptional = set(exceptional_slopes(window))
            for p in range(2, 6):
                for q in range(-9, 0):
                    if gcd(p, -q) != 1 or Slope(q, p) >= window:
                        continue
                    v = classify_cable(book, CableCoefficients(((p, q),)))
                    expected = (
                        VerdictKind.EXCEPTIONAL_TIGHT_POSSIBLE
                        if Slope(q, p) in exceptional
                        else VerdictKind.OVERTWISTED
                    )
                    assert v.kind is expected, (r, s, p, q)


class TestHopfDelta:
    def test_examples(self):
        assert hopf_delta(2, -1, 1) == -2
        assert hopf_delta(3, -2, 0) == -2
        assert hopf_delta(1, -7, 3) == 0
        assert hopf_delta(-1, 7, 3) == 0

    def test_vanishes_iff_p_unit(self):
        for p in range(-5, 6):
            for q in range(-5, 6):
                if p == 0 or p * q >= 0:
                    continue
                for g in range(0, 4):
                    if g == 0 and q == (-1 if p > 0 else 1):
                        continue
                    delta = hopf_delta(p, q, g)
                    assert (delta == 0) == (abs(p) == 1)

    def test_excluded_cases(self):
        with pytest.raises(CableError):
            hopf_delta(2, -1, 0)  # unknot with q = -1
        with pytest.raises(CableError):
            hopf_delta(2, 3, 1)  # positive cable
        with pytest.raises(CableError, match="^genus must be nonnegative$"):
            hopf_delta(2, -1, -1)

    def test_classify_reports_delta(self):
        book = integral_book(genus=1)
        v = classify_cable(book, CableCoefficients(((2, -1),)))
        assert v.hopf_delta == -2


class TestCabledPage:
    def test_22_cable_doubles_genus(self):
        for g in range(0, 5):
            book = integral_book(genus=g)
            out = cabled_page(book, CableCoefficients(((2, 2),)))
            assert (out.genus, out.boundary_count_of_page) == (2 * g, 2)

    def test_21_cable_of_genus_one(self):
        out = cabled_page(integral_book(genus=1), CableCoefficients(((2, 1),)))
        assert out.page_euler_char == -3
        assert (out.genus, out.boundary_count_of_page) == (2, 1)

    def test_11_cable_identity_page(self):
        book = integral_book(genus=3)
        out = cabled_page(book, CableCoefficients(((1, 1),)))
        assert (out.genus, out.boundary_count_of_page) == (book.genus, 1)

    def test_closed_form_matches_assembly(self):
        for g in range(0, 5):
            book = integral_book(genus=g)
            for p in range(1, 7):
                for q in range(-6, 7):
                    if q == 0 or Slope(q, p) == Slope(0):
                        continue
                    coeffs = CableCoefficients(((p, q),))
                    out = cabled_page(book, coeffs)
                    assert out.page_euler_char == cabled_page_assembled(book, coeffs)

    def test_multi_component(self):
        annulus = integral_book(genus=0, components=2)
        out = cabled_page(annulus, CableCoefficients(((2, 1), (2, 1))))
        assert (out.genus, out.boundary_count_of_page) == (1, 2)

    def test_rational_rejected(self):
        with pytest.raises(CableError):
            cabled_page(rational_book(3, -1), CableCoefficients(((2, -1),)))


class TestStabilizationCount:
    def test_examples(self):
        assert stabilization_count_pq_from_p1(3, 4) == 6
        assert stabilization_count_pq_from_p1(5, 1) == 0
        assert stabilization_count_pq_from_p1(2, -3) == 2


class TestResolve:
    def test_five_holed_disk(self):
        book = RationalOpenBook(
            genus=1,
            components=(BindingComponent(5, -1),),
            monodromy=TwistWord.of(
                Generator.fractional_boundary("1", Fraction(1, 5)),
                Generator.dehn_twist("a", -1),
                Generator.dehn_twist("b", -1),
            ),
        )
        out = resolve(book, [0])
        assert (out.genus, out.boundary_count_of_page) == (1, 5)
        assert validate(out) == []
        assert all(c.order == 1 for c in out.components)
        word = out.monodromy
        assert word is not None
        assert sum(g.sign == -1 for g in word) == 2
        boundary_twists = [g for g in word if g.curve.startswith("rb")]
        assert len(boundary_twists) == 5
        assert all(g.sign == 1 for g in boundary_twists)

    def test_already_integral_unchanged(self):
        book = integral_book(genus=2)
        out = resolve(book, [])
        assert out.genus == 2 and out.boundary_count_of_page == 1

    def test_an_integral_book_keeps_its_word(self):
        # with no rational component there is no multitwist to replace the
        # fractional letters by, so the word is kept as it is, not dropped
        word = TwistWord.of(Generator.fractional_boundary("zzz", Fraction(1, 2)),
                            Generator.dehn_twist("c1", -1))
        for w in (word, TwistWord(()), None):
            assert resolve(integral_book(genus=1, word=w), []).monodromy == w

    def test_resolution_slope_error(self):
        book = rational_book(3, -1)
        with pytest.raises(OpenBookError):
            resolve(book, [-1])
        with pytest.raises(OpenBookError):
            resolve(book, [-2])

    def test_general_positive_resolution_is_integral(self):
        for r, s in [(3, -1), (5, -2), (7, -3), (4, -1)]:
            book = rational_book(r, s, genus=2)
            for l in (0, 1, 2):
                if l <= s:
                    continue
                out = resolve(book, [l])
                assert validate(out) == []
                assert all(c.order == 1 for c in out.components)
                assert out == lens_model_resolve(book, [l])

    def test_matches_the_lens_model_on_a_grid(self):
        # every window numerator s of r <= 12 and l from s - 1 (refused) to
        # s + 40; the component is framed k longitudes off its window, so
        # the window's l reads l - k r there
        for r in range(2, 13):
            word = TwistWord.of(Generator.fractional_boundary("1", Fraction(1, r)),
                                Generator.dehn_twist("c1", -1))
            for s in range(-r + 1, 1):
                for k in (0, -1, 2):
                    book = RationalOpenBook(
                        genus=1, monodromy=word,
                        components=(BindingComponent(1, 3), BindingComponent(r, s - k * r)))
                    for l in range(s - 1, s + 41):
                        ls = [l - k * r]
                        assert (resolution_outcome(resolve, book, ls)
                                == resolution_outcome(lens_model_resolve, book, ls)), (r, s, k, l)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_lens_model_on_random_books(self, data):
        components = data.draw(st.lists(
            st.builds(BindingComponent, st.integers(1, 8), st.integers(-30, 30)),
            min_size=1, max_size=3))
        rational = sum(c.order > 1 for c in components)
        word = data.draw(st.sampled_from([
            None, TwistWord(()), TwistWord.of(Generator.fractional_boundary("1", Fraction(1, 3)),
                                              Generator.dehn_twist("c1", -1))]))
        book = RationalOpenBook(genus=data.draw(st.integers(0, 3)), components=tuple(components),
                                monodromy=word)
        ls = data.draw(st.one_of(
            st.lists(st.integers(-40, 40), min_size=rational, max_size=rational),
            st.lists(st.integers(-40, 40), max_size=3)))
        assert resolution_outcome(resolve, book, ls) == resolution_outcome(lens_model_resolve,
                                                                            book, ls)

    def test_multiplicity_bigger_than_one(self):
        book = RationalOpenBook(genus=1, components=(BindingComponent(4, -2),))
        assert book.components[0].multiplicity == 2
        out = resolve(book, [-1])
        assert validate(out) == []
        assert all(c.order == 1 for c in out.components)


class TestSurgery:
    def test_admissible_examples(self):
        assert surgery_admissible(Slope(-5), Slope(0))
        assert not surgery_admissible(Slope(1, 2), Slope(0))
        assert surgery_admissible(Slope(-1, 2), Slope(-1, 3))
        assert not surgery_admissible(Slope(1, 0), Slope(0))

    def test_minus_five_on_trefoil(self):
        book = integral_book(genus=1, word=TwistWord.twists(("c1", -1), ("c2", -1)))
        out = induced_open_book_from_surgery(book, 0, Slope(-5))
        comp = out.components[0]
        assert comp.order == 5 and comp.seifert_numerator == -1
        assert dict(out.metadata).get("contact") == "admissible-surgery supported"
        word = out.monodromy
        assert word is not None and word[-1].kind == "fractional"
        assert word[-1].amount == Fraction(1, 5)

    def test_integer_minus_r(self):
        for r in (2, 3, 7):
            out = induced_open_book_from_surgery(integral_book(), 0, Slope(-r))
            comp = out.components[0]
            assert (comp.order, comp.seifert_numerator) == (r, -1)

    def test_unit_coefficient_stays_integral(self):
        for a in (1, -1):
            out = induced_open_book_from_surgery(integral_book(), 0, Slope(a))
            assert out.components[0].is_integral

    def test_seifert_slope_destroys_fibration(self):
        with pytest.raises(OpenBookError):
            induced_open_book_from_surgery(integral_book(), 0, Slope(0))
        with pytest.raises(OpenBookError):
            induced_open_book_from_surgery(rational_book(3, -1), 0, Slope(-1, 3))

    def test_rational_coefficient(self):
        out = induced_open_book_from_surgery(integral_book(), 0, Slope(-7, 2))
        assert out.components[0].order == 7


class TestLutz:
    def test_recipe_present_only_when_overtwisted(self):
        book = rational_book(3, -1)
        text = classify_cable(book, CableCoefficients(((3, -2),))).lutz_recipe or ""
        assert "Lutz twist" in text and "(3,-2)" in text
        assert (classify_cable(book, CableCoefficients(((2, 1),))).lutz_recipe or "") == ""

    def test_negative_side(self):
        book = rational_book(3, -1)
        text = classify_cable(book, CableCoefficients(((-3, 2),))).lutz_recipe or ""
        assert "(-xi)" in text
