"""cablekit: exact arithmetic for cables of (rational) open books.

Slope calculus on the Farey tessellation, fiber invariants of torus knots in
lens spaces, contact-structure verdicts for cablings, explicit Dehn-twist
monodromy words, and a homological oracle for mapping-class word identities.

Import each public name from the layer that defines it, for example
``from cablekit.classify import classify_cable``.  The package binds no
layer's names, so importing it loads no layer the caller does not use.
"""

__version__ = "0.1.0"


class _Frozen:
    """Base of the immutable value classes: ``__init__`` sets each slot once
    through ``object.__setattr__``; any later assignment raises.

    It owns equality too: two values are equal when they have the same class
    and equal slots.  Defining ``__eq__`` leaves a class unhashable, so a
    value class that is used as a key defines ``__hash__`` itself."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)
