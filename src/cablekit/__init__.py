"""cablekit: exact arithmetic for cables of (rational) open book decompositions.

Slope calculus on the Farey tessellation, fiber invariants of torus knots in
lens spaces, contact-structure verdicts for cablings, explicit Dehn-twist
monodromy words, and a homological oracle for mapping-class word identities.
"""

from .slopes import (
    MERIDIAN,
    NegContinuedFraction,
    Slope,
    SlopeDomainError,
    eval_cont_frac,
    exceptional_slopes,
    farey_neighbors,
    farey_shortest_path,
    neg_cont_frac,
)
from .lens import (
    LensTorusKnot,
    TrivialTorusKnotError,
    boundary_count,
    boundary_wrap,
    euler_characteristic,
    homological_order,
    is_rational_unknot,
    is_trivial,
)
from .openbook import (
    BindingComponent,
    OpenBookError,
    RationalOpenBook,
    normalize_to_window,
    positive_stabilize,
    reframe,
    validate,
)
from .classify import (
    CableCoefficients,
    CableError,
    CableSign,
    CableVerdict,
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
from .words import Generator, TwistWord
from .curves import (
    CurveSystem,
    algebraic_length,
    chain_model,
    mod10_class,
    words_equal_on_homology,
)
from .rewrite import RelationRegistry, ReplayResult, RewriteScript, Step, replay
from .monodromy import (
    branch_point_count,
    compose_cobordism_word,
    monodromy_22_connected,
    monodromy_p1_connected,
    monodromy_p1_disconnected,
    monodromy_pq,
    negative_cable_word,
    resolution_word_r0,
    stein_obstruction_Lppm1,
)
from .braids import BraidWord, braid_Bp, garside_half_twist
from .library import shipped_scripts

__version__ = "0.1.0"
