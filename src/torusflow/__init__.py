"""torusflow: all solutions of flow and elastic network problems whose
nodal variables live on the n-torus, localized by winding vectors and
computed in each winding cell by a Newton solve certified with the
paper's contraction map."""

from .elastic import (
    ElasticEnergy,
    ElasticNetworkProblem,
    energy,
    gradient,
    solve_elastic,
)
from .errors import (
    BalanceError,
    BasisKindError,
    ConvergenceBudgetError,
    CyclicGraphError,
    FeasibilityError,
    GammaError,
    InputError,
    MissingDataError,
    NonIntegerWindingError,
    PolytopeMembershipError,
    PuncturedTorusError,
    RankError,
    SingularityError,
    TorusFlowError,
    UnknownCaseError,
    WeightError,
)
from .flows import (
    ExtendedFlowFunction,
    FlowFunction,
    FlowNetworkProblem,
    IterationReport,
    Solution,
    SolutionReport,
    acyclic_solve,
    check_feasibility,
    decompose_flow,
    loop_flow,
    projection_iteration,
    recover_phases,
    solve_all,
    verify_solution,
    winding_fixed_point_map,
)
from .graphs import (
    Cycle,
    CycleBasis,
    CycleProjection,
    WeightedGraph,
    cycle_edge_pinv,
    cycle_projection,
    explicit_cycle_basis,
    fundamental_cycle_basis,
    integer_cycle_shift,
    integer_shift_solve,
    minimum_cycle_basis,
    spanning_tree,
)
from .powerflow import (
    PowerCase,
    SweepResult,
    SweepSample,
    builtin_case,
    case_to_problem,
    congestion,
    ptc,
)
from .torus import (
    canonical_rotation,
    ccw_difference,
    count_feasible_winding_vectors,
    edge_differences,
    feasible_winding_bounds,
    feasible_winding_vectors,
    phases_equal_mod_rotation,
    polytope_to_torus,
    torus_to_polytope,
    winding_blocks,
    winding_cuts,
    winding_number,
    winding_vector,
    wrap,
)

__version__ = "0.1.0"
