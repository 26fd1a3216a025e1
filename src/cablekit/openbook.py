"""Combinatorial model of (rational) open book decompositions.

A book records its page genus, the Seifert data of each binding component,
and optionally a monodromy word; these fix the page's boundary circle count
and whether the binding is a rational unknot (exactly when the page is a
disk).  Binding data lives in a chosen framing: the page approaches a
component of order r as an (r, s)-curve, so the Seifert slope is s/r and
gcd(r, s) boundary circles of the page lie on that component.  Integral
components have r = 1, and in the page framing s = 0.

Values are immutable; operations return new books.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from . import _Frozen
from .slopes import Slope
from .words import TwistWord


class OpenBookError(ValueError):
    pass


def _json_int(obj: dict, key: str) -> int:
    """The integer at obj[key]; a bool or any other type raises
    OpenBookError, a missing key KeyError."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise OpenBookError(f"book field {key!r} must be an integer, got {value!r}")
    return value


class BindingComponent(_Frozen):
    """One binding component: page meets it as an (order, seifert_numerator)-curve."""

    __slots__ = ("order", "seifert_numerator")

    def __init__(self, order: int, seifert_numerator: int):
        if order < 1:
            raise OpenBookError(f"order must be positive, got {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "seifert_numerator", seifert_numerator)

    @property
    def multiplicity(self) -> int:
        """The boundary circles of the page on this component, gcd(r, s);
        gcd(r, 0) = r, so the count does not depend on the framing."""
        return gcd(self.order, self.seifert_numerator)

    @property
    def seifert_slope(self) -> Slope:
        return Slope(self.seifert_numerator, self.order)

    @property
    def is_integral(self) -> bool:
        return self.order == 1

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "seifert_numerator": self.seifert_numerator,
            "multiplicity": self.multiplicity,
        }

    @staticmethod
    def from_json(obj: dict) -> "BindingComponent":
        if not isinstance(obj, dict):
            raise OpenBookError(f"a binding component must be a JSON object, got {obj!r}")
        c = BindingComponent(_json_int(obj, "order"), _json_int(obj, "seifert_numerator"))
        if "multiplicity" in obj and _json_int(obj, "multiplicity") != c.multiplicity:
            raise OpenBookError(f"component ({c.order}, {c.seifert_numerator}): multiplicity "
                                f"{obj['multiplicity']} != gcd-rule value {c.multiplicity}")
        return c


def reframe(c: BindingComponent, k: int) -> BindingComponent:
    """Shift the framing longitude: the Seifert numerator moves by k * order."""
    return BindingComponent(c.order, c.seifert_numerator + k * c.order)


def window_shift(c: BindingComponent) -> int:
    """The k with -order < seifert_numerator + k * order <= 0."""
    # s + k*r in (-r, 0]  <=>  k = -ceil(s/r) = -((s + r - 1) // r)
    return -((c.seifert_numerator + c.order - 1) // c.order)


def normalize_to_window(c: BindingComponent) -> BindingComponent:
    """Reframe so that -order < seifert_numerator <= 0.  Idempotent."""
    return reframe(c, window_shift(c))


class RationalOpenBook(_Frozen):
    """Page genus, per-component binding data and an optional word."""

    __slots__ = ("genus", "components", "monodromy", "metadata")

    def __init__(self, genus: int, components: tuple[BindingComponent, ...],
                 monodromy: Optional[TwistWord] = None,
                 metadata: tuple[tuple[str, str], ...] = ()):
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "monodromy", monodromy)
        object.__setattr__(self, "metadata", metadata)

    @property
    def boundary_count_of_page(self) -> int:
        return sum(c.multiplicity for c in self.components)

    @property
    def page_euler_char(self) -> int:
        return 2 - 2 * self.genus - self.boundary_count_of_page

    @property
    def is_rational_unknot_book(self) -> bool:
        """The binding is a rational unknot exactly when the page is a disk."""
        return self.genus == 0 and self.boundary_count_of_page == 1

    @property
    def is_integral(self) -> bool:
        return all(c.is_integral for c in self.components)

    @property
    def has_connected_binding(self) -> bool:
        return len(self.components) == 1

    def with_monodromy(self, word: Optional[TwistWord]) -> "RationalOpenBook":
        return RationalOpenBook(self.genus, self.components, word, self.metadata)

    def with_metadata(self, **notes: str) -> "RationalOpenBook":
        merged = dict(self.metadata)
        merged.update(notes)
        return RationalOpenBook(self.genus, self.components, self.monodromy,
                                tuple(sorted(merged.items())))

    def to_json(self) -> dict:
        obj = {
            "genus": self.genus,
            "components": [c.to_json() for c in self.components],
            "boundary_count_of_page": self.boundary_count_of_page,
            "rational_unknot": self.is_rational_unknot_book,
        }
        if self.monodromy is not None:
            obj["monodromy"] = self.monodromy.to_json()
        if self.metadata:
            obj["metadata"] = dict(self.metadata)
        return obj

    @staticmethod
    def from_json(obj: dict) -> "RationalOpenBook":
        if not isinstance(obj, dict):
            raise OpenBookError(f"a book must be a JSON object, got {type(obj).__name__}")
        try:
            word = None
            if obj.get("monodromy") is not None:
                word = TwistWord.from_json(obj["monodromy"])
            genus = _json_int(obj, "genus")
            components, metadata = obj["components"], obj.get("metadata", {})
            if not isinstance(components, list):
                raise OpenBookError("book field 'components' must be a list")
            if not isinstance(metadata, dict) or not all(
                    isinstance(v, str) for v in metadata.values()):
                raise OpenBookError("book field 'metadata' must be an object of strings")
            book = RationalOpenBook(genus, tuple(map(BindingComponent.from_json, components)),
                                    word, tuple(sorted(metadata.items())))
            if ("boundary_count_of_page" in obj
                    and _json_int(obj, "boundary_count_of_page") != book.boundary_count_of_page):
                raise OpenBookError(
                    f"boundary count mismatch: page has {obj['boundary_count_of_page']} boundary "
                    f"circles but component multiplicities total {book.boundary_count_of_page}")
            disk = book.is_rational_unknot_book
            if obj.get("rational_unknot", disk) is not disk:
                raise OpenBookError(f"book field 'rational_unknot' is {obj['rational_unknot']!r}, "
                                    f"but it is {disk}: true exactly for a disk page")
            return book
        except KeyError as exc:
            raise OpenBookError(f"book JSON is missing the required key {exc}") from None


def validate(book: RationalOpenBook) -> list[str]:
    """Return invariant violations as strings; an empty list means valid."""
    problems = []
    if book.genus < 0:
        problems.append(f"negative genus {book.genus}")
    if not book.components:
        problems.append("no binding components")
    return problems


def positive_stabilize(
    book: RationalOpenBook,
    component_index: int,
    mode: str = "same",
    join_index: Optional[int] = None,
    curve_name: Optional[str] = None,
) -> RationalOpenBook:
    """Plumb a positive Hopf band to the page along an embedded arc.

    mode "same": the arc has both endpoints on (the boundary circle of) one
    integral component; the page boundary splits, so the book gains a fresh
    integral component and keeps its genus.  mode "join": the arc runs
    between two integral components, which merge; genus goes up by one.
    Either way the page Euler characteristic drops by exactly 1, and a
    monodromy word, when present, gains one right-handed twist about the
    new curve (arc plus handle core), appended so it acts first.
    """
    comps = list(book.components)
    if not (0 <= component_index < len(comps)):
        raise OpenBookError(f"no component {component_index}")
    c = comps[component_index]
    if not c.is_integral:
        raise OpenBookError("stabilization arcs require an integral component")
    fresh = BindingComponent(order=1, seifert_numerator=0)
    if mode == "same":
        comps.append(fresh)
        genus = book.genus
    elif mode == "join":
        if join_index is None or not (0 <= join_index < len(comps)):
            raise OpenBookError("join mode needs a valid second component index")
        if join_index == component_index:
            raise OpenBookError("join mode needs two distinct components")
        other = comps[join_index]
        if not other.is_integral:
            raise OpenBookError("stabilization arcs require an integral component")
        comps = [x for i, x in enumerate(comps) if i not in (component_index, join_index)]
        comps.append(fresh)
        genus = book.genus + 1
    else:
        raise OpenBookError(f"unknown stabilization mode {mode!r}")

    word = book.monodromy
    if word is not None:
        word = word.compose(TwistWord.twists(curve_name or f"stab{len(word)}"))
    return RationalOpenBook(
        genus=genus,
        components=tuple(comps),
        monodromy=word,
        metadata=book.metadata,
    )
