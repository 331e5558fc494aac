"""Exception types shared across the package."""

from __future__ import annotations


class MomentmixError(Exception):
    """Base class for all package-specific errors."""


class RankTooLarge(MomentmixError):
    """Requested rank exceeds what the monomial bases can support."""

    def __init__(self, r: int, r_max: int | None = None):
        self.r = r
        self.r_max = r_max
        msg = f"rank {r} too large"
        if r_max is not None:
            msg += f" (maximum feasible rank is {r_max})"
        super().__init__(msg)


class OrderExceedsDim(MomentmixError):
    """Tensor order exceeds the dimension, so no distinct-index key exists."""


class MissingEntry(MomentmixError):
    """A required tensor entry is not stored."""

    def __init__(self, key: tuple[int, ...]):
        self.key = key
        super().__init__(f"tensor entry missing at key {key}")


class InvalidTensor(MomentmixError, ValueError):
    """Tensor input with a malformed key or a non-finite value."""


class ShapeCondition(MomentmixError):
    """The binomial shape conditions for the generating system fail."""


class IllConditioned(UserWarning):
    """Warning: a linear system was solved but is badly conditioned."""


class MaxIterations(MomentmixError):
    """An iterative solver hit its iteration cap without converging."""


class EigenFailure(MomentmixError):
    """Eigendecomposition did not converge."""


class DegenerateSpectrum(MomentmixError):
    """Random combinations of companion matrices never produced a
    well-separated spectrum; the input is non-generic or the rank is wrong."""


class TailsDegenerate(MomentmixError):
    """The tail design matrix is numerically rank-deficient."""


class HeadsDegenerate(MomentmixError):
    """A head-recovery design matrix is empty or rank-deficient."""


class ScalesDegenerate(MomentmixError):
    """The scale-recovery design matrix is rank-deficient."""


class DegenerateWeight(MomentmixError):
    """A recovered weight coefficient is too close to zero to invert."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"weight coefficient {index} below floor")


class OrderConflict(MomentmixError):
    """The lower moment order t must be strictly less than m."""


class CovDesignDegenerate(MomentmixError):
    """Covariance-recovery design matrix is rank-deficient for a coordinate."""

    def __init__(self, coord: int):
        self.coord = coord
        super().__init__(f"covariance design degenerate at coordinate {coord}")


class InvalidSamples(MomentmixError, ValueError):
    """Sample data with a non-finite value, or too few samples."""


class TooFewSamples(InvalidSamples):
    """Fewer samples than ``learn`` estimates moments: at least one sample
    per order-m learning key is required."""


class InvalidMomentKey(MomentmixError, ValueError):
    """Moment keys of more than one order, or a moment key with a slot
    that is not an integer or lies outside the coordinates."""
