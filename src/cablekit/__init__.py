"""cablekit: exact arithmetic for cables of (rational) open books.

Slope calculus on the Farey tessellation, fiber invariants of torus knots in
lens spaces, contact-structure verdicts for cablings, explicit Dehn-twist
monodromy words, and a homological oracle for mapping-class word identities.

The top-level names resolve lazily: ``cablekit.TwistWord`` imports
``cablekit.words`` on first access, so importing the package (or the CLI)
loads no layer that the caller does not use.
"""

_EXPORTS = {
    "slopes": ("MERIDIAN", "NegContinuedFraction", "Slope", "SlopeDomainError",
               "eval_cont_frac", "exceptional_slopes", "farey_shortest_path",
               "neg_cont_frac"),
    "lens": ("LensTorusKnot", "TrivialTorusKnotError", "boundary_count", "boundary_wrap",
             "euler_characteristic", "homological_order", "is_rational_unknot", "is_trivial"),
    "openbook": ("BindingComponent", "OpenBookError", "RationalOpenBook",
                 "normalize_to_window", "positive_stabilize", "reframe", "validate"),
    "classify": ("CableCoefficients", "CableError", "CableSign", "CableVerdict", "VerdictKind",
                 "cable_sign", "cabled_page", "classify_cable", "hopf_delta",
                 "induced_open_book_from_surgery", "resolve",
                 "stabilization_count_pq_from_p1", "surgery_admissible"),
    "words": ("Generator", "TwistWord"),
    "curves": ("CurveSystem", "algebraic_length", "chain_model", "mod10_class",
               "words_equal_on_homology"),
    "rewrite": ("RelationRegistry", "ReplayResult", "RewriteScript", "Step", "replay"),
    "monodromy": ("branch_point_count", "compose_cobordism_word", "monodromy_22_connected",
                  "monodromy_p1_connected", "monodromy_p1_disconnected", "monodromy_pq",
                  "negative_cable_word", "stein_obstruction_Lppm1"),
    "library": ("shipped_scripts",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


class _Frozen:
    """Base of the immutable value classes: ``__init__`` sets each slot once
    through ``object.__setattr__``; any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
