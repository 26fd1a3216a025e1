"""Open book data model: validation, reframing, stabilization."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cablekit.lens import LensTorusKnot, is_rational_unknot
from cablekit.openbook import (
    BindingComponent,
    OpenBookError,
    RationalOpenBook,
    normalize_to_window,
    positive_stabilize,
    reframe,
    validate,
)
from cablekit.words import TwistWord


def trefoil_book(word=None):
    return RationalOpenBook(
        genus=1,
        components=(BindingComponent(order=1, seifert_numerator=0),),
        monodromy=word,
    )


class TestValidate:
    def test_trefoil_valid(self):
        assert validate(trefoil_book()) == []

    def test_disk_page_book_is_a_rational_unknot(self):
        # an order-5 disk-page book is valid, and its binding is a rational
        # unknot, as the lens-space count of the same knot says
        book = RationalOpenBook(
            genus=0, components=(BindingComponent(5, -1),)
        )
        assert validate(book) == [] and book.is_rational_unknot_book
        assert is_rational_unknot(LensTorusKnot(5, 4, 1, 0))
        assert not RationalOpenBook(0, (BindingComponent(5, 0),)).is_rational_unknot_book

    def test_flag_requires_disk(self):
        obj = {"genus": 1, "components": [{"order": 1, "seifert_numerator": 0}],
               "rational_unknot": True}
        with pytest.raises(OpenBookError, match="'rational_unknot' is True, but it is False"):
            RationalOpenBook.from_json(obj)


class TestReframe:
    def test_examples(self):
        assert reframe(BindingComponent(5, 1), -1).seifert_numerator == -4
        c = BindingComponent(3, -1)
        assert reframe(c, 0) == c
        assert normalize_to_window(BindingComponent(5, 11)).seifert_numerator == -4

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 60), st.integers(-200, 200), st.integers(-8, 8))
    def test_round_trip_and_window(self, r, s, k):
        c = BindingComponent(r, s)
        assert reframe(reframe(c, k), -k) == c
        w = normalize_to_window(c)
        assert -r < w.seifert_numerator <= 0
        assert normalize_to_window(w) == w

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(-40, 40), st.integers(-8, 8))
    def test_multiplicity_is_the_gcd_in_every_framing(self, r, s, k):
        # gcd(r, 0) = r: the (r, 0) and (r, r) framings count the same circles
        assert reframe(BindingComponent(r, s), k).multiplicity == gcd(r, s)


class TestStabilize:
    def test_join_mode_annulus(self):
        annulus = RationalOpenBook(
            genus=0,
            components=(BindingComponent(1, 0), BindingComponent(1, 0)),
        )
        out = positive_stabilize(annulus, 0, mode="join", join_index=1)
        assert (out.genus, out.boundary_count_of_page) == (1, 1)
        assert out.page_euler_char == annulus.page_euler_char - 1

    def test_same_mode_disk(self):
        disk = RationalOpenBook(genus=0, components=(BindingComponent(1, 0),))
        out = positive_stabilize(disk, 0, mode="same")
        assert (out.genus, out.boundary_count_of_page) == (0, 2)
        assert (disk.page_euler_char, out.page_euler_char) == (1, 0)

    def test_two_stabilizations_drop_chi_by_two(self):
        b0 = RationalOpenBook(genus=1, components=(BindingComponent(1, 0),))
        b1 = positive_stabilize(b0, 0, mode="same")
        b2 = positive_stabilize(b1, 0, mode="join", join_index=1)
        assert b2.page_euler_char == b0.page_euler_char - 2

    def test_word_gains_one_positive_twist(self):
        book = trefoil_book(TwistWord.twists("c1", "c2"))
        out = positive_stabilize(book, 0, mode="same", curve_name="alpha")
        assert out.monodromy is not None
        assert len(out.monodromy) == 3
        ng = out.monodromy[-1]
        assert ng.curve == "alpha" and ng.sign == 1

    def test_untouched_seifert_data(self):
        book = RationalOpenBook(
            genus=0,
            components=(BindingComponent(1, 0), BindingComponent(1, 0),
                        BindingComponent(3, -1)),
        )
        out = positive_stabilize(book, 0, mode="same")
        assert BindingComponent(3, -1) in out.components

    def test_bad_modes(self):
        disk = RationalOpenBook(genus=0, components=(BindingComponent(1, 0),))
        with pytest.raises(OpenBookError, match="^join mode needs two distinct components$"):
            positive_stabilize(disk, 0, mode="join", join_index=0)
        with pytest.raises(OpenBookError, match="^unknown stabilization mode 'weird'$"):
            positive_stabilize(disk, 0, mode="weird")
        rational = RationalOpenBook(genus=0, components=(BindingComponent(3, -1),))
        with pytest.raises(OpenBookError):
            positive_stabilize(rational, 0, mode="same")
        with pytest.raises(OpenBookError, match="^no component 1$"):
            positive_stabilize(disk, 1)
        with pytest.raises(OpenBookError, match="^join mode needs a valid second component"):
            positive_stabilize(disk, 0, mode="join")
        mixed = RationalOpenBook(genus=0, components=(BindingComponent(1, 0),
                                                      BindingComponent(3, -1)))
        with pytest.raises(OpenBookError, match="^stabilization arcs require an integral"):
            positive_stabilize(mixed, 0, mode="join", join_index=1)


class TestJson:
    def test_round_trip(self):
        book = RationalOpenBook(
            genus=2,
            components=(BindingComponent(1, 0), BindingComponent(5, -2)),
            monodromy=TwistWord.twists("c1", ("c2", -1)),
        ).with_metadata(origin="test")
        again = RationalOpenBook.from_json(book.to_json())
        assert again == book

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3),
           st.lists(st.tuples(st.integers(1, 6), st.integers(-12, 12)), min_size=1, max_size=3))
    def test_round_trip_keeps_the_derived_counts(self, genus, pairs):
        book = RationalOpenBook(genus, tuple(BindingComponent(r, s) for r, s in pairs))
        obj = book.to_json()
        assert obj["boundary_count_of_page"] == sum(gcd(r, s) for r, s in pairs)
        assert obj["rational_unknot"] is (genus == 0 and obj["boundary_count_of_page"] == 1)
        assert [c["multiplicity"] for c in obj["components"]] == [gcd(r, s) for r, s in pairs]
        assert RationalOpenBook.from_json(obj) == book
