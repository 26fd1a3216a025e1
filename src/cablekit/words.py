"""Signed generator words for surface mapping classes.

A word is a finite sequence of generators in functional order: the list
reads left to right as a composition, so the rightmost entry acts first.
Generators come in three kinds: right- or left-handed Dehn twists about
named curves, fractional boundary twists, and positive stabilization
markers (bookkeeping for plumbed Hopf bands whose arcs are chosen
implicitly).  Braids reach a word only through their lift to Dehn twists.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from . import _Frozen

DEHN = "dehn"
FRACTIONAL = "fractional"
STAB = "stab"

_KINDS = (DEHN, FRACTIONAL, STAB)


class WordError(ValueError):
    """A word or generator JSON document of the wrong shape."""


class Generator(_Frozen):
    __slots__ = ("kind", "curve", "sign", "amount")

    def __init__(self, kind: str, curve: str, sign: int = 1,
                 amount: Optional[Fraction] = None):  # fractional only; `sign` is its sign
        if kind not in _KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind == FRACTIONAL:
            if amount is None or amount == 0:
                raise ValueError("fractional twist needs a nonzero amount")
            if sign != (1 if amount > 0 else -1):
                raise ValueError(f"fractional twist of amount {amount} has sign {sign}")
        elif sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {sign}")
        elif amount is not None:
            raise ValueError(f"only fractional twists carry an amount, not {kind}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "amount", amount)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def dehn_twist(curve: str, sign: int = 1) -> "Generator":
        return Generator(DEHN, curve, sign)

    @staticmethod
    def fractional_boundary(boundary: str, amount: Fraction) -> "Generator":
        """Right-handed (amount > 0) fractional twist along a boundary collar."""
        from fractions import Fraction  # imported here: most CLI calls build no fraction
        amount = Fraction(amount)
        return Generator(FRACTIONAL, boundary, 1 if amount > 0 else -1, amount)

    @staticmethod
    def stabilization_marker(ref: str, sign: int = 1) -> "Generator":
        return Generator(STAB, ref, sign)

    # -- algebra -------------------------------------------------------------

    def inverse(self) -> "Generator":
        if self.kind == FRACTIONAL:
            return Generator(FRACTIONAL, self.curve, -self.sign, -self.amount)
        return Generator(self.kind, self.curve, -self.sign)

    def __str__(self) -> str:
        if self.kind == DEHN:
            return f"D_{self.curve}" + ("" if self.sign == 1 else "^-1")
        if self.kind == FRACTIONAL:
            return f"delta_{{{self.amount}}}({self.curve})"
        return f"stab({self.curve})" + ("" if self.sign == 1 else "^-1")

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "curve": self.curve, "sign": self.sign}
        if self.amount is not None:
            obj["amount"] = f"{self.amount.numerator}/{self.amount.denominator}"
        return obj

    @staticmethod
    def from_json(obj: dict) -> "Generator":
        if not isinstance(obj, dict):
            raise WordError(f"a word letter must be a JSON object, got {obj!r}")
        for key in ("kind", "curve"):
            if key not in obj:
                raise WordError(f"word letter is missing the required key {key!r}")
            if not isinstance(obj[key], str):
                raise WordError(f"word letter {key!r} must be a string, got {obj[key]!r}")
        amount = None
        if obj.get("amount") is not None:
            from fractions import Fraction
            try:
                num, den = str(obj["amount"]).split("/")
                amount = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                raise WordError(f"word letter 'amount' must be n/d with integers n and "
                                f"d != 0, got {obj['amount']!r}") from None
        sign = obj.get("sign", -1 if amount is not None and amount < 0 else 1)
        if isinstance(sign, bool) or not isinstance(sign, int):
            raise WordError(f"word letter 'sign' must be an integer, got {sign!r}")
        return Generator(obj["kind"], obj["curve"], sign, amount)


def each_letter_once(gens: tuple[Generator, ...],
                     image: Callable[[Generator], Generator]) -> tuple[Generator, ...]:
    """The image of every letter of `gens`, `image` called once per distinct
    letter in order of first appearance.  Letters are told apart by object,
    then by (kind, curve, sign, amount), so equal letters share one image
    even when, as in a word loaded from JSON, each is an object of its own."""
    objects = dict(zip(map(id, gens), gens))
    keys = [(g.kind, g.curve, g.sign, g.amount) for g in objects.values()]
    made = {key: image(g) for key, g in dict(zip(keys, objects.values())).items()}
    images = dict(zip(objects, map(made.__getitem__, keys)))
    return tuple(map(images.__getitem__, map(id, gens)))


class TwistWord(_Frozen):
    """An ordered product of generators; the rightmost acts first."""

    __slots__ = ("generators",)

    def __init__(self, generators: tuple[Generator, ...] = ()):
        object.__setattr__(self, "generators", tuple(generators))
        self.__post_init__()

    def __post_init__(self):
        """Runs once per built word; bench/tracing.py wraps it to count letters."""

    @staticmethod
    def of(*gens: Generator) -> "TwistWord":
        return TwistWord(gens)

    @staticmethod
    def twists(*signed_curves) -> "TwistWord":
        """Build from ("curve", sign) pairs or bare curve names (sign +1),
        one shared Generator per distinct letter."""
        keys = [(item, 1) if isinstance(item, str) else tuple(item) for item in signed_curves]
        made = {(c, s): Generator.dehn_twist(c, s) for c, s in dict.fromkeys(keys)}
        return TwistWord(tuple(made[key] for key in keys))

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[Generator]:
        return iter(self.generators)

    def __getitem__(self, i):
        return self.generators[i]

    def compose(self, other: "TwistWord") -> "TwistWord":
        """self after other: other acts first."""
        return TwistWord(self.generators + other.generators)

    def power(self, n: int) -> "TwistWord":
        if n < 0:
            return self.inverse().power(-n)
        return TwistWord(self.generators * n)

    def inverse(self) -> "TwistWord":
        """The inverted letters in reverse order, shared by `each_letter_once`."""
        return TwistWord(each_letter_once(self.generators[::-1], Generator.inverse))

    def is_positive(self) -> bool:
        """True when every generator is positive."""
        return all(g.sign > 0 for g in self.generators)

    def __str__(self) -> str:
        if not self.generators:
            return "id"
        return " o ".join(str(g) for g in self.generators)

    def to_json(self) -> list:
        return [g.to_json() for g in self.generators]

    @staticmethod
    def from_json(obj: list) -> "TwistWord":
        if not isinstance(obj, list):
            raise WordError(f"a word must be a JSON list, got {type(obj).__name__}")
        return TwistWord(tuple(Generator.from_json(g) for g in obj))
