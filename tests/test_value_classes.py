"""The package's immutable value classes against @dataclass twins.

The package declares its value classes as plain slotted classes, because
importing `dataclasses` and building each decorated class costs every CLI
call about 20 ms.  The twins below are frozen dataclasses with the same
fields, defaults and checks; they are the slow reference for constructors,
equality and hashing.  Every value class compares by its fields, as its
twin does.
"""

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cablekit
from cablekit.classify import CableCoefficients, CableSign, CableVerdict, VerdictKind
from cablekit.curves import CurveInfo
from cablekit.lens import LensTorusKnot
from cablekit.openbook import BindingComponent, OpenBookError, RationalOpenBook
from cablekit.rewrite import Relation, RewriteScript, Step
from cablekit.slopes import NegContinuedFraction, Slope, SlopeDomainError
from cablekit.words import FRACTIONAL, Generator, TwistWord


@dataclass(frozen=True)
class SlopeTwin:
    numerator: int
    denominator: int = 1

    def __post_init__(self):
        q, p = self.numerator, self.denominator
        if q == 0 and p == 0:
            raise SlopeDomainError("0/0 is not a slope")
        g = gcd(abs(q), abs(p))
        q, p = q // g, p // g
        if p < 0 or (p == 0 and q < 0):
            q, p = -q, -p
        object.__setattr__(self, "numerator", q)
        object.__setattr__(self, "denominator", p)


@dataclass(frozen=True)
class NegContinuedFractionTwin:
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(int(t) for t in self.terms))
        if not self.terms:
            raise SlopeDomainError("empty continued fraction")

    def __hash__(self):  # the class hashes its terms, not the tuple of its fields
        return hash(self.terms)


@dataclass(frozen=True)
class GeneratorTwin:
    kind: str
    curve: str
    sign: int = 1
    amount: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in ("dehn", FRACTIONAL, "stab"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == FRACTIONAL:
            if self.amount is None or self.amount == 0:
                raise ValueError("fractional twist needs a nonzero amount")
            if self.sign != (1 if self.amount > 0 else -1):
                raise ValueError("fractional twist sign")
        elif self.sign not in (1, -1):
            raise ValueError("sign must be +-1")
        elif self.amount is not None:
            raise ValueError("only fractional twists carry an amount")


@dataclass(frozen=True)
class TwistWordTwin:
    generators: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))


@dataclass(frozen=True)
class BindingComponentTwin:
    order: int
    seifert_numerator: int

    def __post_init__(self):
        if self.order < 1:
            raise OpenBookError(f"order must be positive, got {self.order}")


@dataclass(frozen=True)
class RationalOpenBookTwin:
    genus: int
    components: tuple
    monodromy: Optional[TwistWord] = None
    metadata: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class LensTorusKnotTwin:
    r: int
    s: int
    k: int
    l: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("lens parameter r must be positive")
        if not (0 <= self.s < self.r) and not (self.r == 1 and self.s == 0):
            raise ValueError("lens parameter s must satisfy 0 <= s < r")
        if gcd(self.r, self.s) != 1:
            raise ValueError("lens parameters must be coprime")
        if (self.k, self.l) == (0, 0):
            raise ValueError("(k, l) = (0, 0) is not a curve class")


@dataclass(frozen=True)
class CableCoefficientsTwin:
    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple((int(p), int(q)) for p, q in self.pairs))


@dataclass(frozen=True)
class CableVerdictTwin:
    kind: VerdictKind
    per_component_signs: tuple
    hopf_delta: Optional[int] = None
    lutz_recipe: Optional[str] = None
    note: str = ""


@dataclass(frozen=True)
class CurveInfoTwin:
    support: dict
    dim: int


@dataclass(frozen=True)
class RelationTwin:
    name: str
    lhs: TwistWord
    rhs: TwistWord


@dataclass(frozen=True)
class StepTwin:
    kind: str
    position: int
    relation: str = ""
    curve: str = ""
    sign: int = 1


@dataclass(frozen=True)
class RewriteScriptTwin:
    name: str
    steps: tuple


# Field values come from small domains, so that equal values turn up often.
_names = st.sampled_from(["", "c1", "c2", "bdry_1"])
_small = st.integers(-3, 3)
_generators = st.builds(Generator.dehn_twist, st.sampled_from(["c1", "c2"]),
                        st.sampled_from([1, -1]))
_words = st.lists(_generators, max_size=3).map(lambda gens: TwistWord(tuple(gens)))
_components = st.builds(BindingComponent, st.integers(1, 3), _small)
_steps = st.builds(Step, st.sampled_from(["apply", "cancel"]), st.integers(0, 2))
_pairs = st.lists(st.tuples(st.sampled_from([1, 2, "2", "x"]), _small), max_size=2)

CASES = {
    Slope: (SlopeTwin, [st.integers(-6, 6), st.integers(-6, 6)]),
    NegContinuedFraction: (NegContinuedFractionTwin, [
        st.lists(st.integers(-3, -1) | st.sampled_from(["-2", "x"]), max_size=2)]),
    Generator: (GeneratorTwin, [st.sampled_from(["dehn", FRACTIONAL, "stab", "braid"]), _names,
                                st.integers(-2, 2),
                                st.none() | st.fractions(-2, 2, max_denominator=3)]),
    TwistWord: (TwistWordTwin, [st.lists(_generators, max_size=3)]),
    BindingComponent: (BindingComponentTwin, [st.integers(0, 4), st.integers(-4, 4)]),
    RationalOpenBook: (RationalOpenBookTwin, [
        st.integers(0, 1), st.lists(_components, max_size=2),
        st.none() | _words, st.sampled_from([(), (("contact", "unchanged"),)])]),
    LensTorusKnot: (LensTorusKnotTwin, [st.integers(0, 4), st.integers(-1, 3), _small, _small]),
    CableCoefficients: (CableCoefficientsTwin, [_pairs]),
    CableVerdict: (CableVerdictTwin, [
        st.sampled_from(VerdictKind), st.lists(st.sampled_from(CableSign), max_size=2).map(tuple),
        st.none() | _small, st.none() | _names, _names]),
    CurveInfo: (CurveInfoTwin, [st.dictionaries(st.integers(0, 3), st.integers(-2, 2).filter(bool),
                                                max_size=2),
                                st.integers(2, 4)]),
    Relation: (RelationTwin, [_names, _words, _words]),
    Step: (StepTwin, [st.sampled_from(["apply", "cancel"]), st.integers(0, 2), _names, _names,
                      st.sampled_from([1, -1])]),
    RewriteScript: (RewriteScriptTwin, [_names, st.lists(_steps, max_size=2).map(tuple)]),
}


def _build(cls, names, values, given_count, positional):
    """cls with the first `given_count` values, the first `positional` of
    them by position and the rest by keyword; an error becomes its type."""
    kwargs = dict(zip(names[positional:given_count], values[positional:given_count]))
    try:
        return cls(*values[:positional], **kwargs)
    except (ValueError, TypeError) as exc:
        return type(exc)


def _fields(obj, names):
    return obj if isinstance(obj, type) else tuple(getattr(obj, n) for n in names)


@st.composite
def _calls(draw, cls):
    """The twin of `cls`, its field names and the arguments of two calls."""
    twin, strategies = CASES[cls]
    names = [f.name for f in dataclasses.fields(twin)]
    required = sum(f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(twin))
    calls = []
    for _ in range(2):
        values = [draw(s) for s in strategies]
        given_count = draw(st.integers(required, len(names)))
        calls.append((values, given_count, draw(st.integers(0, given_count))))
    return twin, names, calls


@pytest.mark.parametrize("cls", sorted(CASES, key=lambda c: c.__name__), ids=lambda c: c.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_value_class_matches_its_dataclass_twin(cls, data):
    twin, names, calls = data.draw(_calls(cls))
    built = [(_build(cls, names, *call), _build(twin, names, *call)) for call in calls]
    for plain, ref in built:
        # the same arguments give the same fields, or the same error type
        assert _fields(plain, names) == _fields(ref, names)
    (a, ref_a), (b, ref_b) = built
    if isinstance(a, type):
        return
    # equal fields make equal values: a second build of the same call included
    again = _build(cls, names, *calls[0])
    assert (a == a, a != a, a == again, a != again) == (True, False, True, False)
    if not isinstance(b, type):
        assert (a == b) == (ref_a == ref_b) and (a != b) == (ref_a != ref_b)
    if vars(cls).get("__hash__") is not None:
        assert hash(a) == hash(ref_a)
    assert a != _fields(a, names) and not a == _fields(a, names)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))


def test_every_frozen_value_class_has_a_twin():
    modules = [__import__(f"cablekit.{path.stem}", fromlist=["_"])
               for path in Path(cablekit.__file__).parent.glob("*.py") if path.stem != "__init__"]
    frozen = {obj for module in modules for obj in vars(module).values()
              if isinstance(obj, type) and issubclass(obj, cablekit._Frozen)}
    assert frozen - {cablekit._Frozen} == set(CASES)


def test_slope_is_not_its_tuple():
    assert Slope(1, 2) != (1, 2) and Slope(2, 4) == Slope(1, 2)
    assert {Slope(2, 4): 1}[Slope(-1, -2)] == 1
