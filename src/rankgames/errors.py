"""Exception hierarchy shared across the solver modules."""


class RankGamesError(Exception):
    """Base class for all library errors."""


class NotSquare(RankGamesError):
    """Matrix operation requires a square matrix."""


class Singular(RankGamesError):
    """Linear system has no unique solution."""


class DimensionMismatch(RankGamesError):
    """Operands have incompatible shapes."""


class MalformedLP(RankGamesError):
    """Linear program fields are dimensionally inconsistent."""


class RankTooHigh(RankGamesError):
    """Payoff-sum matrix has rank above the requested factorization."""


class NotConstantBeta(RankGamesError):
    """Reduction requires a constant column-scaling vector."""


class DegeneracyError(RankGamesError):
    """Base class for degeneracy signals; the CLI maps these to exit 3."""


class DegeneratePolytope(DegeneracyError):
    """A basic feasible point has more tight constraints than its dimension."""


class MultipleDuplicates(DegeneracyError):
    """A vertex pair shares more than one tight inequality."""


class EdgeInHyperplane(DegeneracyError):
    """A whole edge lies inside the selection hyperplane (continuum of equilibria)."""


class NotFullyLabeled(RankGamesError):
    """Vertex pair does not cover all inequality labels."""


class SeedOnPath(RankGamesError):
    """A cycle trace was seeded with a node of the path; the CLI maps this to exit 2."""


class ZeroBeta(RankGamesError):
    """Column-scaling vector must be nonzero."""


class ConstantBeta(RankGamesError):
    """Column-scaling vector must be nonconstant for path endpoints."""


class DependentBetas(RankGamesError):
    """Scaling vectors must be linearly independent."""


class NoBetas(RankGamesError):
    """A game family needs at least one scaling vector."""


class TooLarge(RankGamesError):
    """Instance exceeds an exhaustive-enumeration guard; the CLI maps this to exit 4."""


class StepBudgetExceeded(RankGamesError):
    """A path walk or probe search exceeded the vertex-pair bound (signals a bug, not size)."""


class NonzeroOptimum(RankGamesError):
    """Parametric LP optimum is not exactly zero (consistency failure)."""


class OutOfBox(RankGamesError):
    """Fixed-point argument lies outside the evaluation box."""


class IterationCapExceeded(RankGamesError):
    """Binary search ran past its proven iteration bound."""


class IndexMismatch(RankGamesError):
    """Orientation-based and determinant-based equilibrium indices disagree."""


class NotEquilibrium(RankGamesError):
    """Profile fails exact equilibrium verification."""
