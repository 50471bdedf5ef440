"""Exception types shared across the package."""


class RadialMAError(Exception):
    """Base class for every package-specific error."""


class UnorderedBreakpoints(RadialMAError):
    """Breakpoint abscissas are not strictly increasing."""


class ConvexityViolation(RadialMAError):
    """Successive slopes decrease somewhere, so the profile is not convex."""


class MonotonicityViolation(RadialMAError):
    """A negative slope appeared; profiles must be nondecreasing."""


class OutOfDomain(RadialMAError):
    """Evaluation at or beyond log R, outside the open ball."""


class NotConvexOnGrid(RadialMAError):
    """Sampled analytic family failed the node-wise convexity check."""


class NonStabilized(RadialMAError):
    """The deepest truncation level still covers atoms of the nonpolar part."""

    def __init__(self, level: int, missing_atoms: int):
        super().__init__(
            f"nonpolar part did not stabilize with levels up to {level}"
        )
        self.level = level
        self.missing_atoms = missing_atoms


class EmptyCompact(RadialMAError):
    """Operation requires a nonempty compact set."""


class CompactTouchesBoundary(RadialMAError):
    """The compact reaches log R, so no extremal profile exists inside."""


class NegativeSecondDifference(RadialMAError):
    """Finite-difference mass went negative beyond rounding tolerance."""


class NonMonotoneSequence(RadialMAError):
    """A profile sequence declared decreasing failed a pointwise spot check."""


class NotAdmissible(RadialMAError):
    """Profile violates a standing hypothesis (e.g. nonzero boundary limit)."""


class MassOverflow(RadialMAError):
    """A Monge-Ampere mass at dimension n, or its scale j^n, does not fit
    in a float."""


class GridTooLarge(RadialMAError):
    """An oracle grid has more nodes than a solve is allowed to sweep."""


class GridTooCoarse(RadialMAError):
    """An oracle grid's first node is not two cells left of the compact."""


class NotConverged(RadialMAError):
    """Relaxation sweep budget exhausted before reaching the fixed point."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no fixed point after {iterations} sweeps, residual {residual:.3e}"
        )
        self.iterations = iterations
        self.residual = residual
