"""Exception hierarchy shared by all torusflow modules."""


class TorusFlowError(Exception):
    """Base class for all torusflow errors."""


class SingularityError(TorusFlowError):
    """The graph is disconnected, so Laplacian-based solves are singular."""


class AcyclicGraphError(TorusFlowError):
    """A cycle basis was requested for a graph without cycles."""


class CyclicGraphError(TorusFlowError):
    """The acyclic closed-form solver was called on a cyclic graph."""


class RankError(TorusFlowError):
    """A matrix failed its expected-rank check."""


class BasisKindError(TorusFlowError):
    """An operation required a fundamental cycle basis."""


class WeightError(TorusFlowError):
    """A diagonal weight is not strictly positive."""


class PuncturedTorusError(TorusFlowError):
    """A phase vector has an edge difference of geodesic length pi."""


class NonIntegerWindingError(TorusFlowError):
    """A raw winding value is too far from every integer."""


class PolytopeMembershipError(TorusFlowError):
    """A point is not inside the requested winding polytope."""


class BalanceError(TorusFlowError):
    """A flow does not satisfy the nodal balance equation."""


class ConvergenceBudgetError(TorusFlowError):
    """The projection iteration or Newton solve exceeded twice its analytic budget."""


class FeasibilityError(TorusFlowError):
    """A flow violates the per-edge capacity bound a_ij * |h_e(gamma)|."""


class GammaError(TorusFlowError):
    """The angle bound gamma breaks the strict-monotonicity certificate."""


class UnknownCaseError(TorusFlowError):
    """No built-in case with the requested name."""


class MissingDataError(TorusFlowError):
    """A built-in case needs an external data file that was not supplied."""


class InputError(TorusFlowError):
    """Malformed input document (JSON schema violation, bad field value)."""
