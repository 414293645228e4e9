"""Quantification of finite event posets by chain projection.

Build a partially ordered set of events, distinguish totally ordered
observer chains with exact rational valuations, and project events onto
them. Pairs of projections quantify events and intervals; coordinated
and linearly-related chains make the quantification consistent, and the
consistency constraints reproduce the structure of flat 1+1 space-time:
a Minkowski-signature interval scalar, Bondi-style pair transforms that
are Lorentz boosts in disguise, velocity addition, chain distances, and
an inner-product analogue for projecting intervals onto subspaces.
"""

from .chains import (
    Chain,
    ClosedInterval,
    ValuedChain,
    interval_length,
    join_closed_intervals,
    make_valued_chain,
)
from .dotexport import export_dot
from .errors import (
    BasisMismatchError,
    ChainEscapesWindowError,
    CoincidentChainsError,
    CycleDetectedError,
    DegenerateTransformError,
    DifferentChainsError,
    EmptyWindowError,
    EventPosetError,
    FloatRangeError,
    FormatError,
    FrozenRecordError,
    InvalidArgumentError,
    InvalidIdError,
    MissingProjectionError,
    NoSharedEndpointError,
    NotAChainError,
    NotAdjacentError,
    NotBetweenError,
    NotCompatibleError,
    NotCoordinatedError,
    NotIsotonicError,
    NotLinearlyRelatedError,
    NotOrthogonalError,
    NotProperlyCollinearError,
    NotQuantifiableError,
    OutOfRangeError,
    SideUnknownError,
)
from .generators import (
    Lattice,
    LatticeChainSpec,
    LatticeSpec,
    generate_lattice,
    generate_random,
    generate_simplex,
    maximal_chains,
    standard_lattice,
)
from .intervals import (
    GeneralizedInterval,
    IntervalClassification,
    IntervalKind,
    IntervalPair,
    PairBasis,
    chain_distance,
    classify_interval,
    decompose,
    distance_of_pair,
    interval_pair_one_chain,
    interval_pair_two_chains,
    join_intervals,
    length_of_pair,
    pair,
    split_at_artificial_event,
)
from .poset import Comparability, EventId, Poset, build_poset, chain_poset
from .projection import (
    ProjectionCase,
    ProjectionOutcome,
    backward_project,
    classify_projection,
    forward_project,
    quantify_event,
)
from .spacetime import (
    Character,
    PairTransform,
    ScalarLength,
    ScalarResult,
    SpacetimeCoords,
    apply_pair_transform,
    beta,
    chain_separation,
    combine_projection_distances,
    compose_transforms,
    detect_linear_relation,
    element_chain_distance,
    exact_sqrt,
    from_coords,
    gamma,
    interval_scalar,
    lorentz_apply,
    lorentz_matrix,
    minkowski_form,
    pythagorean_join,
    scalar_length,
    spherical_decompose,
    subspace_projection,
    to_coords,
)
from .structure import (
    Betweenness,
    CollinearityCase,
    IntervalPosition,
    betweenness_of,
    chain_properly_collinear,
    check_compatible,
    check_coordinated,
    collinearity_case,
    induced_chain_order,
    interval_betweenness,
    is_properly_collinear,
)
from .textio import format_poset_text, parse_poset_text

__version__ = "0.1.0"
