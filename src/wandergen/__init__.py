"""wandergen: construction and certification of group-orbit Riesz bases,
frames, wandering-subspace complements, oblique multiwavelets, and
biorthogonal duals."""

from .errors import (
    EmptyFamily,
    ExactModeRequired,
    GenericityFailure,
    HypothesisFailure,
    NotContained,
    NotDirectSum,
    NotInvariant,
    NotRiesz,
    NotWandering,
    RankJump,
    SelectionObstruction,
    SingularPairing,
    SizeLimit,
    SizeMismatch,
    SizesEqual,
    SupportExceedsGrid,
    WandergenError,
    WrongMode,
)
from .fibers import (
    Bounds,
    Family,
    FiberField,
    SampledFamily,
    frame_bounds,
    gram_fibers,
    is_biorthogonal,
    is_contained,
    mixed_gramian,
    orthonormalize,
    riesz_bounds,
    synthesize,
)
from .groups import (
    FiniteAbelian,
    GroupVector,
    IntegerShift,
    SystemSpace,
    delta,
    fourier,
    from_dense,
    inverse_fourier,
    translate,
)
from .oblique import (
    BiorthogonalPair,
    DenseBasis,
    FiberBasisField,
    ProjectionPair,
    biorthogonal_wavelets,
    direct_sum_check,
    dual_family,
    is_invariant,
    oblique_frame_wavelets,
    oblique_projector,
    oblique_riesz_wavelets,
    orth_complement_in,
    restricted_projection_pair,
)
from .wandering import (
    BesselAudit,
    WanderingCertificate,
    bessel_dimension_audit,
    complement_wandering,
    verify_wandering,
)

__version__ = "0.1.0"
