"""Domain error types shared across the toolkit.

Each error exposes a stable ``code`` (its class name) that the CLI maps to
machine-readable reports and exit status 2.
"""


class WandergenError(Exception):
    """Base class for domain errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class EmptyFamily(WandergenError):
    """An operation that needs generators received none, or a zero span."""


class SupportExceedsGrid(WandergenError):
    """A vector support is too wide for alias-free evaluation on the grid."""


class NotRiesz(WandergenError):
    """Some Gram fiber is singular beyond tolerance; no Riesz bounds exist."""


class RankJump(WandergenError):
    """Fiber rank varies across the sampling; the frame property cannot be
    certified on this sampling."""


class SizeMismatch(WandergenError):
    """Paired families must have equal sizes and share a system space."""


class SizesEqual(WandergenError):
    """A construction requiring strictly fewer coarse generators got r >= s."""


class NotWandering(WandergenError):
    """A family failed its wandering (orbit-orthonormality) certificate."""


class NotContained(WandergenError):
    """Fiber column spaces are not contained where containment is required."""


class SelectionObstruction(WandergenError):
    """Adjacent-grid basis alignment failed; no continuous selection found."""


class NotDirectSum(WandergenError):
    """Fiber subspaces overlap or fail to span; rank additivity violated."""


class NotInvariant(WandergenError):
    """A dense subspace is not closed under the group action."""


class SingularPairing(WandergenError):
    """The cross-Gram pairing is singular; no biorthogonal dual exists."""


class HypothesisFailure(WandergenError):
    """Inputs violate the hypotheses of the requested construction."""


class GenericityFailure(WandergenError):
    """No well-conditioned generic witness found within the retry budget."""


class SizeLimit(WandergenError):
    """Dense oracle request exceeds the size cap, or a Gram spectrum overflows float64."""


class ExactModeRequired(WandergenError):
    """Operation is only defined for finite (exact-mode) systems."""


class WrongMode(WandergenError):
    """The requested command does not apply to this system mode."""
