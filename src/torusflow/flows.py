"""Flow network problems on the n-torus.

Implements the flow-function model with its monotonicity certificate, the
linearly-extended flow function and its inverse, the winding fixed-point
map, the contraction (projection) iteration, the certified Newton solve
and three-way verdict per winding cell (batched over a stack of cells),
the complete multi-solution solver (trees included), and flow
decomposition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BalanceError,
    ConvergenceBudgetError,
    CyclicGraphError,
    FeasibilityError,
    GammaError,
    InputError,
    TorusFlowError,
)
from .graphs import Cycle, CycleBasis, WeightedGraph, _winding_ints, fundamental_cycle_basis, integer_cycle_shift
from .torus import TWO_PI, WINDING_INT_TOL, _candidate_blocks, canonical_rotation, edge_differences

MIN_SLOPE = 1e-9
BALANCE_TOL = 1e-8
RESIDUAL_TOL = 1e-8
FEASIBILITY_SLACK = 1e-9
DEFAULT_RHO = 1e-10
TIGHT_RHO = 1e-15  # below any reachable bound: a solve to the rounding floor
CERT_GRID = 1001
UNIT_ROUNDOFF = 2.0**-53  # eps: fl(x op y) = (x op y)(1 + t), |t| <= eps
# The accuracy model of h_gamma^{-1} in `decide_cells`' rounding term: the
# computed inverse lies within INVERSE_ULPS eps |delta| of h_gamma^{-1} of its
# computed argument.  numpy's arcsin and the bisection inverse's Newton
# polish stay within a few ulps; the inverse does not report its own error.
INVERSE_ULPS = 4


@dataclass(frozen=True)
class Certificate:
    """Monotonicity certificate of a flow function on [-gamma, gamma]."""

    gamma: float
    lmin: float
    lmax: float
    h_gamma: float
    dh_gamma: float


@dataclass(frozen=True, eq=False)
class FlowFunction:
    """Odd 2pi-periodic C^1 scalar flow map with its derivative.

    `inner_inverse`, when given, inverts h exactly on [-gamma, gamma];
    otherwise a safeguarded bisection with Newton polish is used.

    `sin_family()`, `linear(slope)` and `fourier(coeffs)` return one shared
    instance per family and parameters, so a problem groups the edges of a
    family as one and each family is certified once per gamma in a process.
    A shared instance, its `params` included, must not be mutated.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    inner_inverse: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "callable"
    params: dict = field(default_factory=dict)

    def certify(self, gamma: float) -> Certificate:
        """Validate oddness and strict monotonicity on [-gamma, gamma]."""
        cache = self.__dict__.setdefault("_cert_cache", {})
        if gamma in cache:
            return cache[gamma]
        if not 0.0 <= gamma < math.pi:
            raise InputError("gamma must lie in [0, pi)")
        grid = np.linspace(-gamma, gamma, CERT_GRID) if gamma > 0 else np.zeros(1)
        vals = np.asarray(self.evaluate(grid), dtype=float)
        if not np.max(np.abs(vals + vals[::-1])) <= 1e-12:
            raise InputError(f"flow function {self.name!r} is not odd")
        slopes = np.asarray(self.derivative(grid), dtype=float)
        # The endpoints are sampled, and an interior extremum y* of h' has
        # h''(y*) = 0.  A grid point lies within half the spacing D of y*, so
        # as |h'''| <= sum k^3 |b_k| its slope is within sum k^3 |b_k| D^2 / 8.
        gap = 0.0
        if "fourier" in self.params and gamma > 0:
            b = np.abs(np.asarray(self.params["fourier"], dtype=float))
            spacing = 2.0 * gamma / (CERT_GRID - 1)
            gap = float(np.arange(1, b.size + 1) ** 3 @ b) * spacing**2 / 8.0
        lmin = float(np.min(slopes)) - gap
        lmax = float(np.max(slopes)) + gap
        if lmax < 0.0:
            raise GammaError(
                f"flow function {self.name!r} is strictly decreasing on "
                f"[-{gamma}, {gamma}]; solve the negated problem "
                "(negated(), with -p) and report -f"
            )
        if not lmin >= MIN_SLOPE:  # a NaN slope fails too
            raise GammaError(
                f"flow function {self.name!r} has min slope {lmin:.3e} "
                f"< {MIN_SLOPE} on [-{gamma}, {gamma}]; the contraction "
                "certificate fails -- try gamma <- gamma - epsilon"
            )
        cert = Certificate(
            gamma=gamma,
            lmin=lmin,
            lmax=lmax,
            h_gamma=float(self.evaluate(np.array(gamma))),
            dh_gamma=float(self.derivative(np.array(gamma))),
        )
        cache[gamma] = cert
        return cert

    def negated(self) -> "FlowFunction":
        ev, dv, inv = self.evaluate, self.derivative, self.inner_inverse
        return FlowFunction(
            evaluate=lambda y: -np.asarray(ev(y), dtype=float),
            derivative=lambda y: -np.asarray(dv(y), dtype=float),
            inner_inverse=None if inv is None else (lambda v: inv(-np.asarray(v))),
            name=f"neg({self.name})",
            params=dict(self.params),
        )

    @staticmethod
    def sin_family() -> "FlowFunction":
        return _FAMILIES.setdefault(("sin",), FlowFunction(
            evaluate=np.sin,
            derivative=np.cos,
            # `ExtendedFlowFunction.inverse` has clipped v to +-sin(gamma).
            inner_inverse=lambda v: np.arcsin(np.asarray(v, dtype=float)),
            name="sin",
        ))

    @staticmethod
    def linear(slope: float = 1.0) -> "FlowFunction":
        slope = float(slope)
        if not 0.0 < slope < math.inf:
            raise InputError("linear flow family needs a finite positive slope")
        return _FAMILIES.setdefault(("linear", slope), FlowFunction(
            evaluate=lambda y: slope * np.asarray(y, dtype=float),
            derivative=lambda y: np.full_like(np.asarray(y, dtype=float), slope),
            inner_inverse=lambda v: np.asarray(v, dtype=float) / slope,
            name="linear",
            params={"slope": slope},
        ))

    @staticmethod
    def fourier(coeffs: Sequence[float]) -> "FlowFunction":
        """Odd sine series h(y) = sum_k b_k sin(k y)."""
        b = np.asarray(list(coeffs), dtype=float)
        if b.size == 0 or not np.isfinite(b).all():
            raise InputError("fourier flow family needs at least one coefficient, all finite")
        k = np.arange(1, b.size + 1)

        def ev(y):
            y = np.asarray(y, dtype=float)
            return np.sin(np.multiply.outer(y, k)) @ b

        def dv(y):
            y = np.asarray(y, dtype=float)
            return np.cos(np.multiply.outer(y, k)) @ (k * b)

        # Keyed by the coefficients' bits, so that -0.0 and 0.0 stay apart.
        return _FAMILIES.setdefault(("fourier", b.tobytes()), FlowFunction(
            evaluate=ev,
            derivative=dv,
            name="custom",
            params={"fourier": b.tolist()},
        ))


# The one instance of each built-in family and parameters, by (name, key).
_FAMILIES: dict[tuple, FlowFunction] = {}


@dataclass(frozen=True, eq=False)
class ExtendedFlowFunction:
    """Flow function continued linearly outside [-gamma, gamma].

    The continuation has slope h'(gamma), making the map strictly
    increasing on all of R, hence globally invertible.
    """

    base: FlowFunction
    gamma: float

    @cached_property
    def cert(self) -> Certificate:
        return self.base.certify(self.gamma)

    def evaluate(self, y):
        y = np.asarray(y, dtype=float)
        inside = np.clip(y, -self.gamma, self.gamma)
        return self.base.evaluate(inside) + self.cert.dh_gamma * (y - inside)

    def inverse(self, v):
        v = np.asarray(v, dtype=float)
        c = self.cert
        inside = v.clip(-c.h_gamma, c.h_gamma)
        return self._inner_inverse(inside) + (v - inside) / c.dh_gamma

    def _inner_inverse(self, v: np.ndarray) -> np.ndarray:
        if self.base.inner_inverse is not None:
            y = np.asarray(self.base.inner_inverse(v), dtype=float)
            return y.clip(-self.gamma, self.gamma)
        lo = np.full_like(v, -self.gamma)
        hi = np.full_like(v, self.gamma)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = np.asarray(self.base.evaluate(mid), dtype=float) < v
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        y = 0.5 * (lo + hi)
        for _ in range(2):
            dh = np.asarray(self.base.derivative(y), dtype=float)
            step = (np.asarray(self.base.evaluate(y), dtype=float) - v) / dh
            y = np.clip(y - step, -self.gamma, self.gamma)
        return y


@dataclass(frozen=True, eq=False)
class FlowNetworkProblem:
    """A flow network problem (graph, per-edge flow functions, p, gamma).

    Every cached property is a function of these four fields alone: the
    per-edge certificate arrays are filled once per distinct flow function,
    no basis is kept, and only `cutset_flow` reads p.
    """

    graph: WeightedGraph
    flow_functions: tuple[FlowFunction, ...]
    p: np.ndarray
    gamma: float

    def __post_init__(self):
        g = self.graph
        funcs = tuple(self.flow_functions)
        if len(funcs) != g.m:
            raise InputError("need one flow function per edge")
        object.__setattr__(self, "flow_functions", funcs)
        p = np.asarray(self.p, dtype=float)
        if p.shape != (g.n,):
            raise InputError(f"p must have length {g.n}")
        if not np.isfinite(p).all():
            raise InputError("p must be finite")
        if abs(float(np.sum(p))) > 1e-10 * max(1.0, float(np.max(np.abs(p)))):
            raise InputError("supply/demand vector p must sum to zero")
        object.__setattr__(self, "p", p)
        if not 0.0 <= self.gamma < math.pi:
            raise InputError("gamma must lie in [0, pi)")
        for h, _ in self._edge_groups:
            h.cert  # certifies each distinct flow function, or raises

    @classmethod
    def single_family(cls, graph, flow, p, gamma) -> "FlowNetworkProblem":
        return cls(graph=graph, flow_functions=(flow,) * graph.m, p=p, gamma=gamma)

    def with_supply(self, p) -> "FlowNetworkProblem":
        return replace(self, p=np.asarray(p, dtype=float))

    @cached_property
    def _edge_groups(self) -> list[tuple[ExtendedFlowFunction, np.ndarray]]:
        """One extended function per distinct flow function, with its edges."""
        return [(ExtendedFlowFunction(f, self.gamma), idx) for f, idx in identity_groups(self.flow_functions)]

    def _certified(self, name: str) -> np.ndarray:
        """The certificate entry `name` of every edge, filled once per group."""
        out = np.zeros(self.graph.m)
        for h, idx in self._edge_groups:
            out[idx] = getattr(h.cert, name)
        return out

    @cached_property
    def lmin(self) -> np.ndarray:
        return self._certified("lmin")

    @cached_property
    def lmax(self) -> np.ndarray:
        return self._certified("lmax")

    @cached_property
    def capacity(self) -> np.ndarray:
        """Per-edge bound a_ij |h_e(gamma)| on any solution flow."""
        return self.graph.weight_vector * np.abs(self._certified("h_gamma"))

    @cached_property
    def contraction_rate(self) -> float:
        """The infinity-norm contraction factor ||I - Lmin Lmax^{-1}||, 0.0 on a graph with no edge."""
        return float(np.max(1.0 - self.lmin / self.lmax, initial=0.0))

    @cached_property
    def cutset_flow(self) -> np.ndarray:
        """The balanced flow A B^T L^+ p, taken with the graph's fundamental
        basis; the solvers take it with their own basis."""
        return self.graph.cutset_flow(self.p)

    def _per_edge(self, pick, x: np.ndarray) -> np.ndarray:
        """pick(h) applied to the entries of h's edges along x's last axis,
        with one call on a 1-D array per group of edges sharing a function."""
        groups = self._edge_groups
        if len(groups) == 1:
            return np.asarray(pick(groups[0][0])(x.ravel()), dtype=float).reshape(x.shape)
        out = np.zeros_like(x)
        for h, idx in groups:
            part = x[..., idx]
            out[..., idx] = np.asarray(pick(h)(part.ravel()), dtype=float).reshape(part.shape)
        return out

    def inverse_differences(self, f: np.ndarray) -> np.ndarray:
        """h_gamma^{-1}(A^{-1} f), vectorized over edges (the last axis)."""
        v = np.asarray(f, dtype=float) / self.graph.weight_vector
        return self._per_edge(lambda h: h.inverse, v)

    def inverse_slopes(self, delta: np.ndarray) -> np.ndarray:
        """1 / (a_ij h_e'(clip(delta_e, +-gamma))): the derivative of
        h_gamma^{-1}(A^{-1} f) in f at the point whose differences are delta."""
        inside = np.asarray(delta, dtype=float).clip(-self.gamma, self.gamma)
        out = self._per_edge(lambda h: h.base.derivative, inside)
        return 1.0 / (self.graph.weight_vector * out)

    def edge_flows(self, delta: np.ndarray) -> np.ndarray:
        """a_ij h_e(delta_e) for a vector of edge differences."""
        delta = np.asarray(delta, dtype=float)
        out = self._per_edge(lambda h: h.base.evaluate, delta)
        return self.graph.weight_vector * out

    def map_norm(self, v: np.ndarray):
        """The (Lmin A)^{-1} weighted 2-norm, row-wise along the last axis (a
        float for a vector).  P_D is orthogonal in it, so on balanced flows
        T_u contracts by `contraction_rate` in this norm."""
        norm = np.sqrt((np.asarray(v) ** 2 / self._lmin_a).sum(axis=-1))
        return float(norm) if norm.ndim == 0 else norm

    @cached_property
    def _lmin_a(self) -> np.ndarray:
        return self.lmin * self.graph.weight_vector

    @cached_property
    def map_norm_to_edge(self) -> float:
        """sqrt(max Lmin a): every |x_e| <= map_norm(x) * this."""
        return math.sqrt(float(self._lmin_a.max(initial=0.0)))


def identity_groups(items: Sequence) -> list[tuple[object, np.ndarray]]:
    """Group positions by the identity of their item: (item, positions)."""
    groups: dict[int, tuple[object, list[int]]] = {}
    for e, item in enumerate(items):
        groups.setdefault(id(item), (item, []))[1].append(e)
    return [(item, np.array(ids, dtype=int)) for item, ids in groups.values()]


def _map_inverse(problem: FlowNetworkProblem, basis: CycleBasis) -> np.ndarray:
    """M^{-1} for the k x k Gram M = C (Lmin A)^{-1} C^T: the map factor
    K = C^T M^{-1} has P_D (Lmin A x) = K C x, and applies to a stack of
    rows y as y K^T = (y M^{-1}) C, without forming K.  With one Lmin l on
    every edge, M = W / l for W = C A^{-1} C^T, so M^{-1} is l times the
    cached `basis.weighted_gram_inverse` and a solve forms one k x k
    inverse: a 30x30 lattice's `solve_all` (k = 841) took 0.071 s against
    0.104 s with two (one BLAS thread).  Otherwise M is inverted here."""
    lmin = problem.lmin
    if lmin.size and (lmin == lmin[0]).all():
        return lmin[0] * basis.weighted_gram_inverse
    return np.linalg.inv(basis.gram(1.0 / problem._lmin_a))


def _linear_loop_flow(problem: FlowNetworkProblem, basis: CycleBasis, twopi_u: np.ndarray) -> np.ndarray:
    """The loop flow l C^T W^{-1} 2pi u of a row 2pi u, or of each row of a
    (B, k) stack: f0 plus it solves cell u's loop equation linearised at
    delta = 0, with W^{-1} = `basis.weighted_gram_inverse` and one slope
    l = max Lmax (h'(0) = 1 for sine), as C A^{-1} f0 = 0."""
    slope = float(problem.lmax.max(initial=0.0))
    return ((slope * twopi_u) @ basis.weighted_gram_inverse) @ basis.matrix


@dataclass
class IterationReport:
    """Convergence record of one projection-iteration or Newton run.

    `error_bound` is a Newton solve's certified per-edge distance of the
    returned flow from the cell's fixed point (0.0 in a projection run's
    report).  It is the exact-arithmetic bound read from the T_u step plus
    a rounding term r, which covers the rounding of that step's h_gamma^{-1}
    evaluation (the division by A included) and of its loop residual, and
    treats M^{-1} as exact; `decide_cells` says what r leaves out, the start
    flow's own balance rounding among it.  It reads 0.0 only where the step
    and r are both 0: on a basis with no cycle (a tree's), whose one row
    keeps its rounded tree flow, and at the zero flow of the cell u = 0.  A
    cell is decided when it is `feasible` or has `infeasible_edges`;
    otherwise it is undecided.  For a Newton solve this is the one-row view
    `CellVerdicts[r]` of its stack's record.
    """

    iterations: int
    final_step: float
    rate: float
    feasible: bool = False
    infeasible_edges: tuple[int, ...] = ()
    contraction_verified: bool = True
    weighted_steps: tuple[float, ...] = ()
    error_bound: float = 0.0

    @property
    def decided(self) -> bool:
        return self.feasible or bool(self.infeasible_edges)


@dataclass(eq=False)
class CellVerdicts:
    """Verdicts of a (B, k) stack of Newton-solved cells, one array per field:
    `infeasible` is the (B, m) mask of the edges that prove a cell infeasible,
    `steps` holds each row's map-norm steps, NaN after its last.  The row view
    `verdicts[r]` is row r's `IterationReport`, built on demand from Python
    lists of the fields that the first view makes, so the arrays are not
    to be changed once a row has been viewed."""

    rate: float
    feasible: np.ndarray
    infeasible: np.ndarray
    error_bound: np.ndarray
    final_step: np.ndarray
    iterations: np.ndarray
    steps: np.ndarray

    def __len__(self) -> int:
        return self.feasible.size

    @cached_property
    def contraction_verified(self) -> np.ndarray:
        """Whether each row's steps contract by `rate`, for all rows at once."""
        return _contracts(self.rate, self.steps)

    @cached_property
    def _lists(self) -> tuple[list, ...]:
        """The per-row fields as Python lists, built once for every row view."""
        return (
            self.iterations.tolist(),
            self.steps.tolist(),
            self.contraction_verified.tolist(),
            self.final_step.tolist(),
            self.feasible.tolist(),
            self.infeasible.any(axis=1).tolist(),
            self.error_bound.tolist(),
        )

    def __getitem__(self, r: int) -> IterationReport:
        # An index past the end raises IndexError, which also ends iteration.
        iterations, steps, verified, final_step, feasible, refuted, error_bound = self._lists
        taken = iterations[r]
        # Positional, in field order: one view per solution, and keywords cost
        # more than twice as much.
        return IterationReport(
            taken,
            final_step[r],
            self.rate,
            feasible[r],
            tuple(self.infeasible[r].nonzero()[0].tolist()) if refuted[r] else (),
            verified[r],
            tuple(steps[r][: taken + 1]),
            error_bound[r],
        )


@dataclass
class SolutionReport:
    """Independent residuals of a certified solution.

    `constraint_margin` is gamma - max |delta_e|.  The constraint holds
    when each |delta_e| is at most gamma + FEASIBILITY_SLACK / (a_e |h_e'(gamma)|),
    the angle at which the linear extension's flow passes capacity by the
    slack that a feasible verdict allows: `within_allowance`.
    """

    balance_residual: float
    physics_residual: float
    constraint_margin: float
    winding_deviation: float
    boundary: bool
    within_allowance: bool

    def within_tolerance(self) -> bool:
        """Balance, physics and margin within tolerance; winding not checked."""
        return not replace(self, winding_deviation=0.0).failures()

    def failures(self) -> list[str]:
        """The residuals outside tolerance, winding deviation included."""
        checks = (
            (self.balance_residual < RESIDUAL_TOL, "balance residual", self.balance_residual),
            (self.physics_residual < RESIDUAL_TOL, "physics residual", self.physics_residual),
            (self.within_allowance, "constraint margin", self.constraint_margin),
            (self.winding_deviation <= WINDING_INT_TOL, "winding mismatch", self.winding_deviation),
        )
        # Written as "not within", so that a NaN residual is flagged too.
        return [f"{name} {value:.3e}" for ok, name, value in checks if not ok]


@dataclass
class Solution:
    """A certified solution: flows, phases, winding vector, residuals."""

    f: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    report: SolutionReport
    iteration: IterationReport | None = None


def _check_basis(problem: FlowNetworkProblem, basis: CycleBasis) -> None:
    """Raise InputError unless basis is of the problem's graph, equal by value."""
    if basis.graph != problem.graph:
        raise InputError("the cycle basis is of another graph than the problem's")


def winding_fixed_point_map(problem: FlowNetworkProblem, basis: CycleBasis, u, f) -> np.ndarray:
    """One application of T_u; preserves the balance constraint B f = p."""
    _check_basis(problem, basis)
    f = np.asarray(f, dtype=float)
    residual = float(np.max(np.abs(problem.graph.divergence(f) - problem.p)))
    if residual >= BALANCE_TOL:
        raise BalanceError(f"f is not balanced: ||Bf - p||_inf = {residual:.3e}")
    twopi_u = TWO_PI * _winding_ints(u, basis.size)
    return f - _map_step(problem, basis, _map_inverse(problem, basis), f, twopi_u)[2]


def _map_step(problem, basis, inverse, F, twopi_u):
    """The T_u step at a flow row or a (B, m) stack F: delta =
    h_gamma^{-1}(A^{-1} F), the loop residual g = C delta - 2pi u, the step
    F - T_u F = P_D Lmin A (delta - 2pi C^+ u) = g K^T = (g M^{-1}) C, with
    M^{-1} = `inverse` from `_map_inverse`, and the step's `map_norm`."""
    C = basis.matrix
    delta = problem.inverse_differences(F)
    grad = delta @ C.T - twopi_u
    step = (grad @ inverse) @ C
    return delta, grad, step, problem.map_norm(step)


def _newton_coordinates(basis: CycleBasis, w: np.ndarray, G: np.ndarray) -> np.ndarray:
    """x = H^{-1} g for each row g of the (B, k) stack G, H = C diag(w) C^T of
    the matching row of the (B, m) stack w, or of its one row when w is
    (1, m): one stacked k x k solve, or, on a basis whose cycles share no
    edge (`basis.disjoint`), one division by H's diagonal."""
    if basis.disjoint:
        C = basis.matrix
        return G / (w @ (C * C).T)
    return np.linalg.solve(basis.gram(w), G[:, :, None])[:, :, 0]


def _step_budget(rate: float, ratio) -> np.ndarray:
    """T_u steps that shrink a distance by each factor in `ratio` (inf for a
    zero distance), plus 10; at least 11."""
    ratio = np.minimum(ratio, 1.0)
    if rate == 0.0:
        return np.full(ratio.shape, 11)
    return np.maximum(np.ceil(np.log(ratio) / math.log(rate)), 1.0).astype(int) + 10


def _contracts(rate: float, steps: np.ndarray) -> np.ndarray:
    """Whether each run of map-norm steps along the last axis (NaN after its
    last) shrinks by at least the factor `rate` at every step."""
    return ~(steps[..., 1:] > rate * steps[..., :-1] + 1e-12).any(axis=-1)


def projection_iteration(
    problem: FlowNetworkProblem,
    basis: CycleBasis,
    u,
    rho: float = DEFAULT_RHO,
) -> tuple[np.ndarray, IterationReport]:
    """Iterate T_u from the cutset flow (taken with `basis`) until the step
    falls below rho.

    Steps are measured in the `map_norm`, where T_u contracts by `rate`.
    The iteration count is bounded by the geometric convergence estimate
    plus a safety margin of 10; exceeding twice that budget raises
    ConvergenceBudgetError (it signals violated preconditions).
    """
    if not 0.0 < rho < math.inf:
        raise InputError("rho must be finite and positive")
    _check_basis(problem, basis)
    twopi_u = TWO_PI * _winding_ints(u, basis.size)
    rate = problem.contraction_rate
    inverse = _map_inverse(problem, basis)
    f = problem.graph.cutset_flow(problem.p, basis)
    _, _, step, d = _map_step(problem, basis, inverse, f, twopi_u)
    budget = int(_step_budget(rate, rho / (d * problem.map_norm_to_edge) if d > 0.0 else math.inf))

    steps = [d]
    while (step_inf := float(np.abs(step).max(initial=0.0))) >= rho:
        if len(steps) > 2 * budget:
            raise ConvergenceBudgetError(
                f"projection iteration exceeded 2x its budget of {budget} "
                f"iterations (last step {step_inf:.3e})"
            )
        f = f - step
        _, _, step, d = _map_step(problem, basis, inverse, f, twopi_u)
        steps.append(d)

    verified = bool(_contracts(rate, np.array(steps)))
    report = IterationReport(
        iterations=len(steps),
        final_step=step_inf,
        rate=rate,
        contraction_verified=verified,
        weighted_steps=tuple(steps),
    )
    return f - step, report


def decide_cells(
    problem: FlowNetworkProblem, basis: CycleBasis, U, rho: float = DEFAULT_RHO, scales=None
) -> tuple[np.ndarray, CellVerdicts]:
    """Certified damped Newton solves of a (B, k) stack of cells U, each with
    its three-way verdict: the (B, m) flows and one `CellVerdicts` record
    of B rows, whose row view `verdicts[r]` is row r's `IterationReport`.

    In cell u the fixed point f* = f0 + C^T c* of T_u (f0 the cutset flow
    taken with `basis`, formed once per call) minimises the strictly convex
    loop-flow potential Psi_u(c), whose gradient is
    g = C h_gamma^{-1}(A^{-1} f) - 2pi u and whose Hessian is
    C diag(1 / (a h'(clip(delta)))) C^T.  A row with u != 0 starts at f0
    plus its loop flow linearised at delta = 0 (`_linear_loop_flow`); a
    row with u = 0 starts at f0.  Psi_u is strictly convex and every
    verdict certified, so the start sets only the speed and the last bits.
    A basis with no cycle (a tree's) has one cell, u = (), whose T_u is
    constant: its rate is 0.0 and its one row is decided at the start.

    With a (B,) array `scales`, row r decides cell U[r] of
    `problem.with_supply(scales[r] * problem.p)`.  p enters only through
    the start flow, which is then scales[r] f0 plus the unscaled loop flow:
    every step lies in Img C^T, so B f = scales[r] p stays exact, and the
    capacity, rate, map factor and verdict do not read p.

    The stack's Hessians come from one `basis.gram` call per step, and a
    step solves each k x k system; on a basis whose cycles share no edge
    (`basis.disjoint`), a stack of any height divides by each Hessian's
    diagonal instead (`_newton_coordinates`).  The T_u step of a row with
    gradient g is `_map_step`'s g K^T = (g M^{-1}) C, with the k x k
    inverse M^{-1} of `_map_inverse` taken once per call: with one Lmin on
    every edge, the start flow's inverse scaled, so one k x k inverse
    serves both.  A Newton point f - t N (t = 1, 1/2, 1/4, ...
    while t >= 1 - rate) is taken when its T_u step is at most `rate` times
    the current one in the `map_norm`; failing that the plain T_u step is,
    so no step contracts less than T_u does.

    The certified per-edge distance of f from f* is the row's `error_bound`
    b = (d + e) c, c = sqrt(max Lmin A) / (1 - rate), where d is the
    computed map norm ||T_u f - f|| and e bounds the map norm of the
    computed step's error (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1; eps = UNIT_ROUNDOFF, gamma_n = n eps /
    (1 - n eps)): e = ||M^{-1}||_inf^{1/2} (sqrt(k) L max_e x_e +
    gamma_{L+3} ||2pi u||_2), L = `basis.longest_cycle`, and x_e =
    gamma_{L+3} |delta_e| + INVERSE_ULPS eps (|delta_e| + |f_e| /
    (a_e Lmin_e)).  So the rounding term r = e c covers the evaluation of
    h_gamma^{-1}, the division by a_e carried through its slope (at most
    1 / Lmin_e); the loop residual's dot products of at most L differences
    and 2pi u_i (whose two roundings gamma_{L+3} includes); and their way
    into the map norm, (x M^{-1} x^T)^{1/2} <= ||M^{-1}||_inf^{1/2} ||x||_2,
    with ||M^{-1}||_inf the largest absolute row sum of the call's M^{-1}.
    M^{-1} is treated as exact, and r leaves out the
    rounding of the products by M^{-1} and C and of the norm, which are
    relative to the step and vanish with it.  Nor does b cover the start
    flow's own balance rounding: every step lies in Img C^T, so B f keeps
    the start's rounded B f0 = p, and f* is the fixed point on that
    balance; `verify_cells`' balance residual bounds the gap.  Only b
    reads r: the budget, the rounding-floor test and the contraction flags
    read d.  With s = FEASIBILITY_SLACK the cell is feasible when every
    margin - b >= -s, and infeasible on the edges whose margin + b < -s.
    A row stops as soon as some edge proves it infeasible, whatever b is:
    that verdict is final, and an infeasible row's f is accurate only to
    its b.  A feasible row stops once b < rho as well, so every feasible
    flow is within rho of f*; rho = inf stops each row once it is decided.
    A row also stops when even T_u no longer contracts (the rounding floor)
    or when a step makes no progress; a cell that is then neither feasible
    nor infeasible is undecided.  `iterations` counts the steps taken.

    Every row runs exactly this per-cell solve; the rows only share their
    array operations (one stacked Hessian solve or division per step), and
    a row leaves the stack when its verdict is final.  Its results are
    stored in the record's arrays as it leaves, and the step history grows
    by one column per step.
    """
    if not rho > 0.0:
        raise InputError("rho must be positive")
    _check_basis(problem, basis)
    rate = problem.contraction_rate if basis.size else 0.0
    C = basis.matrix
    inverse = _map_inverse(problem, basis)
    # |x_e| <= sqrt(Lmin_e a_e) ||x||, and the contraction adds 1 / (1 - rate).
    to_bound = problem.map_norm_to_edge / (1.0 - rate)
    twopi_u = TWO_PI * _winding_ints(U, basis.size, 2)
    rows = np.arange(twopi_u.shape[0])
    flows = np.zeros((rows.size, basis.graph.m))
    feasible = np.zeros(rows.size, dtype=bool)
    error_bound = np.zeros(rows.size)
    final_step = np.zeros(rows.size)

    # Every row starts from the cutset flow taken with this basis, scaled by
    # the row's scale (1 when none is given); a row with u != 0 adds its
    # linearised loop flow, unscaled.
    scales = np.ones(rows.size) if scales is None else np.asarray(scales, dtype=float)
    if scales.shape != rows.shape:
        raise InputError(f"need one scale per cell: {scales.shape} for {rows.size} cells")
    F = scales[:, None] * problem.graph.cutset_flow(problem.p, basis)
    loops = twopi_u.any(axis=1).nonzero()[0]
    F[loops] += _linear_loop_flow(problem, basis, twopi_u[loops])
    D, G, S, d = _map_step(problem, basis, inverse, F, twopi_u)
    # Each row's rounding term r = e c (see above), as
    # edge_round max_e(|delta_e| + ratio_e |f_e|) + loop_round.
    through = to_bound * math.sqrt(float(np.abs(inverse).sum(axis=1).max(initial=0.0)))
    n = basis.longest_cycle + 3
    sums = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)  # gamma_{L+3}
    inverse_err = INVERSE_ULPS * UNIT_ROUNDOFF
    edge_round = through * math.sqrt(basis.size) * basis.longest_cycle * (sums + inverse_err)
    ratio = (inverse_err / (sums + inverse_err)) / problem._lmin_a
    loop_round = (through * sums) * np.sqrt((twopi_u * twopi_u).sum(axis=1))
    history = [(rows, d)]  # per step taken: the stack's rows and their map-norm steps
    # No step contracts less than T_u, so this many reach the rounding floor.
    with np.errstate(divide="ignore"):
        budget = _step_budget(rate, TIGHT_RHO / (d * to_bound))
    floor = np.zeros(rows.size, dtype=bool)

    while rows.size:
        size = np.abs(F)
        low = (problem.capacity - size).min(axis=1, initial=math.inf)
        size *= ratio
        size += np.abs(D)
        bound = d * to_bound + (edge_round * size.max(axis=1, initial=0.0) + loop_round)
        # Rounding is monotone, so the least margin of a row gives its verdict
        # exactly: low - b >= -s iff every margin - b >= -s, and low + b < -s
        # iff some margin + b < -s.
        ok = low - bound >= -FEASIBILITY_SLACK
        done = floor | (low + bound < -FEASIBILITY_SLACK) | (ok & (bound < rho))
        if (late := ~done & (len(history) > 2 * budget)).any():
            i = int(late.argmax())
            raise ConvergenceBudgetError(
                f"Newton solve exceeded 2x its budget of {budget[i]} steps "
                f"(certified distance {bound[i]:.3e})"
            )
        if leaving := np.count_nonzero(done):
            at_rows = rows[done]
            flows[at_rows] = F[done]
            feasible[at_rows] = ok[done]
            error_bound[at_rows] = bound[done]
            final_step[at_rows] = np.abs(S[done]).max(axis=1, initial=0.0)
            if leaving == rows.size:
                break
            keep = ~done
            F, D, G, S, d = F[keep], D[keep], G[keep], S[keep], d[keep]
            twopi_u, loop_round, rows, budget = twopi_u[keep], loop_round[keep], rows[keep], budget[keep]
        newton = _newton_coordinates(basis, problem.inverse_slopes(D), G) @ C
        trial = F - newton
        state = _map_step(problem, basis, inverse, trial, twopi_u)
        pending = (state[3] > rate * d).nonzero()[0]
        t = 1.0
        while len(pending):
            t /= 2.0
            if t < 1.0 - rate:
                # To first order a step of length t shrinks d by the factor
                # 1 - t, so no shorter one can match the plain T_u step.
                trial[pending] = F[pending] - S[pending]
            else:
                trial[pending] = F[pending] - t * newton[pending]
            part = _map_step(problem, basis, inverse, trial[pending], twopi_u[pending])
            for whole, value in zip(state, part):
                whole[pending] = value
            if t < 1.0 - rate:
                break
            pending = pending[part[3] > rate * d[pending]]
        # T_u contracts by rate; a step that shrinks d less is at the rounding
        # floor.  A step that makes no progress is undone, so its row leaves
        # at the next check with its verdict at f.
        stuck = ~(state[3] < d)
        floor = stuck | (state[3] > rate * d)
        if stuck.any():
            trial[stuck] = F[stuck]
            for now, then in zip(state, (D, G, S, d)):
                now[stuck] = then[stuck]
        F, (D, G, S, d) = trial, state
        if not stuck.all():
            history.append((rows[~stuck], d[~stuck]))

    # The edges that prove each row infeasible, for all rows at once: a
    # feasible row has every margin - b >= -s, so it has none.
    infeasible = (problem.capacity - np.abs(flows)) + error_bound[:, None] < -FEASIBILITY_SLACK
    # A row's steps are its entries in the history: it is in every column
    # from the first to the last step it took.
    steps = np.full((len(flows), len(history)), np.nan)
    iterations = np.zeros(len(flows), dtype=int)
    for j, (at_rows, column) in enumerate(history):
        steps[:, j][at_rows] = column
        iterations[at_rows] = j
    return flows, CellVerdicts(rate, feasible, infeasible, error_bound, final_step, iterations, steps)


def decide_cell(
    problem: FlowNetworkProblem, basis: CycleBasis, u, rho: float = DEFAULT_RHO
) -> tuple[np.ndarray, IterationReport]:
    """Certified damped Newton solve of cell u, and its three-way verdict:
    `decide_cells` on the single row u, read through its row view."""
    flows, verdicts = decide_cells(problem, basis, _winding_ints(u, basis.size)[None, :], rho)
    return flows[0], verdicts[0]


def check_feasibility(problem: FlowNetworkProblem, f) -> tuple[bool, np.ndarray]:
    """Test |f_e| <= a_ij |h_e(gamma)| with slack; report per-edge margins."""
    margins = problem.capacity - np.abs(np.asarray(f, dtype=float))
    return bool(np.all(margins >= -FEASIBILITY_SLACK)), margins


def recover_cells(problem: FlowNetworkProblem, basis: CycleBasis, U, F) -> np.ndarray:
    """Phases of a (B, m) stack F of feasible fixed-point flows in the cells
    U, canonical modulo rotation: (B, n).

    Fits each row's delta = h_gamma^{-1}(A^{-1}f) to C delta = 2pi u by
    A-weighted least squares (giving B^T x + 2pi C^+ u for the polytope
    coordinate x), applying G = A^{-1} C^T W^{-1}, W = C A^{-1} C^T, to the
    stack through W^{-1} = `basis.weighted_gram_inverse`, and integrates
    every row along the tree with `WeightedGraph.tree_phases`.  The cells
    are taken to lie in the winding image, as `solve_all`'s candidates do:
    off the tree a row outside it misses its delta by 2pi z for a z that is
    not integral, which `verify_cells` reports.  The first row that
    exceeds a capacity raises FeasibilityError.
    """
    _check_basis(problem, basis)
    F = np.asarray(F, dtype=float)
    margins = problem.capacity - np.abs(F)
    over = ~(margins >= -FEASIBILITY_SLACK).all(axis=-1)
    if over.any():
        bad = np.nonzero(margins[over.argmax()] < -FEASIBILITY_SLACK)[0].tolist()
        raise FeasibilityError(f"flow exceeds capacity on edges {bad}")
    U = _winding_ints(U, basis.size, 2)
    if len(U) != len(F):
        raise InputError(f"need one flow per cell: {len(F)} flows for {len(U)} cells")
    delta = problem.inverse_differences(F)
    C = basis.matrix
    delta -= (((delta @ C.T - TWO_PI * U) @ basis.weighted_gram_inverse) @ C) / problem.graph.weight_vector
    return canonical_rotation(problem.graph.tree_phases(delta))


def recover_phases(problem: FlowNetworkProblem, basis: CycleBasis, u, f) -> np.ndarray:
    """Phases of a feasible fixed-point flow, canonical modulo rotation:
    `recover_cells` on the single row f, raising NonIntegerWindingError
    when u is not in the winding image (`integer_cycle_shift`)."""
    u = _winding_ints(u, basis.size)
    integer_cycle_shift(basis, u)
    return recover_cells(problem, basis, u[None, :], np.asarray(f, dtype=float)[None, :])[0]


def verify_cells(problem: FlowNetworkProblem, basis: CycleBasis, F, Theta, U) -> list[SolutionReport]:
    """Recompute all residuals of a (B, ·) stack of solutions from scratch:
    one `SolutionReport` per row.

    Each row's residuals come from its own flow f and phases theta alone,
    through theta's wrapped differences (a row with a difference of
    geodesic length pi raises PuncturedTorusError); the rows share only
    the graph, the problem's constants and the basis.  A NaN in a row
    makes that row's residuals NaN, which `failures` flags.  F must be
    (B, m), Theta (B, n) and U a (B, k) stack of winding vectors, or
    InputError is raised.
    """
    _check_basis(problem, basis)
    g = problem.graph
    F = np.asarray(F, dtype=float)
    U = _winding_ints(U, basis.size, 2)
    delta = edge_differences(g, Theta)
    if not F.shape == delta.shape == (len(U), g.m):
        want = f"({len(U)}, {g.m}) flows and ({len(U)}, {g.n}) phases for {len(U)} cells"
        raise InputError(f"need {want}, not {F.shape} and {np.shape(Theta)}")
    balance = np.abs(g.divergence(F) - problem.p).max(axis=-1, initial=0.0)
    physics = np.abs(F - problem.edge_flows(delta)).max(axis=-1, initial=0.0)
    angle = np.abs(delta)
    margin = problem.gamma - angle.max(axis=-1, initial=0.0)
    allowance = FEASIBILITY_SLACK / np.abs(g.weight_vector * problem._certified("dh_gamma"))
    within = (angle <= problem.gamma + allowance).all(axis=-1)
    raw = delta @ basis.matrix.T / TWO_PI
    winding_dev = np.abs(raw - U).max(axis=-1, initial=0.0)
    margins = problem.capacity - np.abs(F)
    boundary = margins.min(axis=-1, initial=math.inf) <= FEASIBILITY_SLACK
    return [
        SolutionReport(*row)
        for row in zip(*(x.tolist() for x in (balance, physics, margin, winding_dev, boundary, within)))
    ]


def verify_solution(problem: FlowNetworkProblem, basis: CycleBasis, f, theta, u) -> SolutionReport:
    """Recompute all solution residuals from scratch: `verify_cells` on the
    single row (f, theta, u)."""
    f = np.asarray(f, dtype=float)[None, :]
    theta = np.asarray(theta, dtype=float)[None, :]
    return verify_cells(problem, basis, f, theta, _winding_ints(u, basis.size)[None, :])[0]


def acyclic_solve(problem: FlowNetworkProblem) -> Solution | None:
    """The unique solution on a tree, or None: `solve_all`'s one cell
    u = (), whose flow A B^T L^+ p balance alone forces."""
    if problem.graph.cycle_space_dim != 0:
        raise CyclicGraphError("graph has cycles; use solve_all")
    return next(iter(solve_all(problem)), None)


def solve_all(
    problem: FlowNetworkProblem,
    rho: float = DEFAULT_RHO,
    basis: CycleBasis | None = None,
) -> list[Solution]:
    """All solutions of the flow network problem, sorted by winding vector.

    Walks the candidate cells of the winding box in lexicographic order,
    in the (<= CHUNK_ROWS, k) blocks of `torus._candidate_blocks`: the box's
    cells that break no cut and lie in the winding image.  Each block is
    decided by one `decide_cells` call (certified Newton plus the
    three-way verdict per cell).  The first undecided cell raises
    TorusFlowError naming its u.  The block's feasible rows then have their
    phases recovered by one `recover_cells` call and are certified by one
    `verify_cells` call, each row from its own flow and phases.  The first
    failed certificate in box order raises.  The solutions come in box
    order: their f and theta are rows of the block's (solutions, m) and
    (solutions, n) arrays, which hold nothing else, and each u is an array
    of its own.  A block with no feasible row skips both calls.
    A tree's default basis has no cycle, and its box the one cell u = ().  A
    box too large to enumerate raises InputError before any cut is formed.
    """
    if not 0.0 < rho < math.inf:
        raise InputError("rho must be finite and positive")
    if basis is None:
        basis = fundamental_cycle_basis(problem.graph)
    solutions = []
    for U in _candidate_blocks(basis, problem.gamma):
        flows, verdicts = decide_cells(problem, basis, U, rho)
        undecided = ~(verdicts.feasible | verdicts.infeasible.any(axis=1))
        if undecided.any():
            r = int(undecided.argmax())
            raise TorusFlowError(
                f"winding vector {U[r].tolist()} is undecided: a margin lies "
                f"within the certified error bound {verdicts.error_bound[r]:.3e} of the slack"
            )
        rows = verdicts.feasible.nonzero()[0]
        if not rows.size:
            continue
        F, U_rows = flows[rows], U[rows]
        thetas = recover_cells(problem, basis, U_rows, F)
        reports = verify_cells(problem, basis, F, thetas, U_rows)
        for u, report in zip(U_rows, reports):
            if report.failures():
                raise TorusFlowError(f"certification failed for winding vector {u.tolist()}: {report}")
        iterations = map(verdicts.__getitem__, rows.tolist())
        solutions += map(Solution, F, thetas, map(np.ndarray.copy, U_rows), reports, iterations)
    return solutions


def decompose_flow(g: WeightedGraph, f) -> tuple[np.ndarray, np.ndarray]:
    """Unique split f = cutset part + cycle part (the latter in Ker B); the
    cutset part A B^T L^+ B f is the cutset flow of f's divergence."""
    f = np.asarray(f, dtype=float)
    f_cut = g.cutset_flow(g.divergence(f))
    return f_cut, f - f_cut


def loop_flow(cycle: Cycle, f) -> float:
    """Circulating component v_sigma^T f of a flow around one cycle."""
    return float(np.asarray(cycle.vector, dtype=float) @ np.asarray(f, dtype=float))
