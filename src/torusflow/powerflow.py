"""Lossless AC active power flow as a flow network problem on the torus.

Covers case ingestion (with rebalancing), translation to sin-family flow
problems, power-transmission-capacity sweeps, and congestion reporting.  A
PTC is predicted, then certified: one uncertified point-of-collapse Newton
loop on the flow and the scale guesses it, and one stacked certified call
decides the emitted curve and a bracket of width tol around the guess.
When that bracket does not hold, a certified multisection takes over from
the tightest bracket the call gave; its probes are verdict-only, each
Newton solve stopping once its cell is decided.  Voltage magnitudes are inputs, never solved for.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import GammaError, InputError, MissingDataError, NonIntegerWindingError, UnknownCaseError
from .flows import (
    DEFAULT_RHO,
    FEASIBILITY_SLACK,
    FlowFunction,
    FlowNetworkProblem,
    Solution,
    _linear_loop_flow,
    _newton_coordinates,
    decide_cells,
)
from .graphs import (
    CycleBasis,
    WeightedGraph,
    _winding_ints,
    _wire_int,
    fundamental_cycle_basis,
    integer_cycle_shift,
)
from .torus import TWO_PI

REBALANCE_LIMIT = 0.01
GAMMA_LIMIT = math.pi / 2 - 1e-9
PTC_TOL = 1e-6  # default width of the certified PTC bracket
SECTIONS = 16  # parts each PTC multisection round cuts its bracket into
PREDICT_STEPS = 25  # Newton steps the PTC prediction may take
SWEEP_GAMMA = math.pi / 2 - 0.01  # the sweep's default maximum power angle


@dataclass(frozen=True)
class PowerCase:
    """Buses (voltage magnitude, active power) plus susceptance branches.

    Power entries may be MW (give base_mva) or already per-unit.  A small
    imbalance is removed by subtracting the mean; corrections beyond 1% of
    total generation are rejected as bad data.
    """

    buses: tuple[tuple[float, float], ...]  # (V_i, p_i)
    branches: tuple[tuple[int, int, float], ...]  # (i, j, susceptance)
    base_mva: float | None = None
    name: str = ""
    rebalance_correction: float = field(default=0.0, init=False, compare=False)

    def __post_init__(self):
        buses = tuple((float(v), float(p)) for v, p in self.buses)
        branches = tuple((_wire_int(i), _wire_int(j), float(b)) for i, j, b in self.branches)
        if not all(0.0 < v < math.inf and math.isfinite(p) for v, p in buses):
            raise InputError("all voltage magnitudes must be finite and positive, and all powers finite")
        if not all(0.0 < b < math.inf for _, _, b in branches):
            raise InputError("all branch susceptances must be finite and positive")
        if self.base_mva is not None:
            try:
                ok = 0.0 < float(self.base_mva) < math.inf
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise InputError(f"base_mva must be finite and positive, not {self.base_mva!r}")
        p = np.array([pw for _, pw in buses])
        imbalance = float(np.sum(p))
        total_gen = float(np.sum(p[p > 0.0]))
        correction = imbalance / len(buses)
        if abs(imbalance) > 1e-10 * max(1.0, float(np.max(np.abs(p)))):
            if total_gen == 0.0 or abs(imbalance) > REBALANCE_LIMIT * total_gen:
                raise InputError(
                    f"case imbalance {imbalance:.6g} exceeds 1% of generation"
                )
            buses = tuple((v, pw - correction) for v, pw in buses)
        else:
            correction = 0.0
        object.__setattr__(self, "buses", buses)
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "rebalance_correction", correction)

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def supply(self) -> np.ndarray:
        """Balanced active power vector in per-unit."""
        p = np.array([pw for _, pw in self.buses])
        if self.base_mva:
            p = p / float(self.base_mva)
        return p

    def to_dict(self) -> dict:
        doc = {
            "buses": [{"v": v, "p": p} for v, p in self.buses],
            "branches": [[i, j, b] for i, j, b in self.branches],
        }
        if self.base_mva:
            doc["base_mva"] = self.base_mva
        return doc

    @classmethod
    def from_dict(cls, doc: dict, name: str = "") -> "PowerCase":
        try:
            return cls(
                buses=tuple((float(b["v"]), float(b["p"])) for b in doc["buses"]),
                branches=tuple((r[0], r[1], float(r[2])) for r in doc["branches"]),
                base_mva=doc.get("base_mva"),
                name=name or doc.get("name", ""),
            )
        except (KeyError, TypeError, IndexError, ValueError, InputError) as exc:
            raise InputError(f"bad power case document: {exc}") from exc


def case_to_problem(case: PowerCase, gamma: float) -> FlowNetworkProblem:
    """Flow problem with edge weights V_i V_j b_ij and sine flow functions."""
    if gamma >= GAMMA_LIMIT:
        raise GammaError(
            f"gamma = {gamma} >= pi/2 - 1e-9 breaks the sine monotonicity "
            "certificate; use a strictly smaller maximum power angle"
        )
    volts = [v for v, _ in case.buses]
    edges = [(i, j) for i, j, _ in case.branches]
    weights = [volts[i] * volts[j] * b for i, j, b in case.branches]
    graph = WeightedGraph.from_edges(case.n, edges, weights)
    return FlowNetworkProblem.single_family(graph, FlowFunction.sin_family(), case.supply, gamma)


def congestion(solution: Solution, problem: FlowNetworkProblem) -> float:
    """Maximum normalized edge loading max_e |f_e / a_ij|."""
    return float(np.max(np.abs(solution.f / problem.graph.weight_vector)))


@dataclass(frozen=True)
class SweepSample:
    """One existence probe of a PTC sweep."""

    scale: float
    exists: bool
    congestion: float | None
    loop_flows: tuple[float, ...]


@dataclass
class SweepResult:
    """PTC of one winding vector plus its sampled congestion curve."""

    u: np.ndarray
    ptc: float | None
    curve: tuple[SweepSample, ...]


def _predict_ptc(problem: FlowNetworkProblem, basis: CycleBasis, u: np.ndarray, ceiling: float) -> float | None:
    """Uncertified guess of the PTC of cell u, or None when it gives up.

    The point-of-collapse method: Newton on the flow f and the scale s for
    the loop equation g = C h^-1(A^-1 f) - 2 pi u = 0 together with
    sigma f_e = capacity_e + FEASIBILITY_SLACK on a binding edge e, from
    s = 0 and the linearised loop flow (`_linear_loop_flow`).  With
    W = `inverse_slopes` and H = C W C^T, a scale step ds moves f to
    f - C^T H^-1 (g + C W f0 ds) + f0 ds, so each step solves for
    [g, C W f0] (`_newton_coordinates`) and binds the edge whose linearised
    margin runs out first; s may dip below 0 on the way.  It gives up when
    |s| passes the ceiling, when it converges to an s below 0, and after
    PREDICT_STEPS steps.  Nothing it returns is trusted: it only picks the
    scales that `decide_cells` certifies.
    """
    C = basis.matrix
    f0 = problem.graph.cutset_flow(problem.p, basis)
    twopi_u = TWO_PI * u
    cap = problem.capacity + FEASIBILITY_SLACK
    f, s = _linear_loop_flow(problem, basis, twopi_u), 0.0
    for _ in range(PREDICT_STEPS):
        delta = problem.inverse_differences(f)
        W = problem.inverse_slopes(delta)
        rhs = np.stack((C @ delta - twopi_u, (C * W) @ f0))
        loop, lift = _newton_coordinates(basis, W[None], rhs) @ C
        # Edge e's linearised margin runs out at ds = reach_e.
        f1, df = f - loop, f0 - lift
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(df != 0.0, (cap - np.sign(df) * f1) / np.abs(df), math.inf)
        ds = float(reach.min())
        s += ds
        if not abs(s) <= ceiling:
            return None
        f = f1 + ds * df
        if abs(ds) <= 1e-14 * abs(s):
            return s if s >= 0.0 else None
    return None


def ptc(
    case: PowerCase,
    u,
    gamma: float,
    tol: float = PTC_TOL,
    rho: float = DEFAULT_RHO,
    basis: CycleBasis | None = None,
    curve_points: int = 9,
) -> SweepResult:
    """Largest scale P of the case's profile with a winding-u solution.

    Predict, then certify.  An uncertified point-of-collapse Newton loop
    (`_predict_ptc`) guesses the scale P* at which the first edge flow of
    cell u reaches capacity.  One stacked `decide_cells` call on the case's
    own problem, with per-row supply scales and solved to `rho`, then
    decides the curve's `curve_points` scales linspace(0, lo) (a
    non-negative integer, checked before any solve) together with
    0, lo = P* - tol/2 and hi = lo + tol.  When its first row that is not
    feasible is hi, that call is the whole result: lo is the PTC, with
    existence certified there and failing or undecided at hi.  An
    undecided row counts as no solution.

    When the prediction gives up, the stack is the zero scale alone, run
    until it is decided (rho = inf).  Either stack's bracket ends at its
    first row that is not feasible (the ceiling when none is), and unless
    that call was the whole result a certified multisection takes over:
    each round probes the SECTIONS - 1 interior points of the bracket
    (lo, hi) in one stacked call run only until each row is decided
    (rho = inf), hi moves to the first probe that is not feasible and lo
    to the probe before it, and the curve is one more call, solved to
    `rho` since its loop flows are emitted.  Either way existence is certified at the returned value and
    fails or is undecided at most tol above it; a zero scale that is not
    feasible gives ptc None, and so does a cell outside the winding image
    (no integer cycle shift), before any solve: it is empty at every scale.
    Assumes a single existence interval [0, PTC].

    The bracket's ceiling is certified without a probe: a feasible verdict
    bounds every |f_e| by capacity + FEASIBILITY_SLACK, and B f = P p_hat,
    so no scale above the slack-widened node-capacity ceiling
    min_i node_cap_i / |p_hat_i| has a feasible cell.
    """
    problem = case_to_problem(case, gamma)
    if basis is None:
        basis = fundamental_cycle_basis(problem.graph)
    return _winding_ptc(problem, basis, u, tol, rho, curve_points)


def _winding_ptc(
    problem: FlowNetworkProblem, basis: CycleBasis, u, tol: float, rho: float, curve_points: int = 9
) -> SweepResult:
    """`ptc` on the case's problem and a basis, built once per sweep; one
    bracket rule serves the predicted stack and the lone zero scale."""
    if not (0.0 < tol < math.inf and 0.0 < rho < math.inf):
        raise InputError("tol and rho must be finite and positive")
    if not (isinstance(curve_points, (int, np.integer)) and curve_points >= 0):
        raise InputError(f"curve_points must be a non-negative integer, not {curve_points!r}")
    u = _winding_ints(u, basis.size)
    p_hat = problem.p
    if float(np.max(np.abs(p_hat))) == 0.0:
        raise InputError("the case profile is identically zero; nothing to scale")

    def probe(scales: np.ndarray, rho: float):
        # An undecided cell counts as not feasible, so a probe that says yes
        # is feasible at the certified error bound.
        U = u.reshape(1, -1).repeat(scales.size, axis=0)
        flows, verdicts = decide_cells(problem, basis, U, rho, scales=scales)
        return verdicts.feasible, flows

    def result(lo: float, hi: float, curve: np.ndarray, exists, flows) -> SweepResult:
        loading = np.abs(flows / problem.graph.weight_vector).max(axis=1)
        loops = flows @ basis.matrix.T
        samples = [
            SweepSample(
                scale=scale,
                exists=ok,
                congestion=load if ok else None,
                loop_flows=tuple(loop) if ok else (),
            )
            for scale, ok, load, loop in zip(curve.tolist(), exists.tolist(), loading.tolist(), loops.tolist())
        ]
        samples.append(SweepSample(scale=hi, exists=False, congestion=None, loop_flows=()))
        return SweepResult(u=u, ptc=lo, curve=tuple(samples))

    # A node passes at most the capacity of the edges that touch it, each
    # widened by the slack that a feasible verdict allows.
    cap, (i, j), n = problem.capacity + FEASIBILITY_SLACK, problem.graph.ends, problem.graph.n
    node_caps = np.bincount(i, cap, n) + np.bincount(j, cap, n)
    mask = np.abs(p_hat) > 0.0
    ceiling = float(np.min(node_caps[mask] / np.abs(p_hat[mask]))) * (1.0 + 1e-9) + tol
    # A bracket wider than 2 SECTIONS ulps of the ceiling has cut points at
    # least 2 ulps apart, so they round to distinct scales inside it and
    # every multisection round narrows it; a narrower tol stalls the rounds.
    if tol < 2 * SECTIONS * math.ulp(ceiling):
        raise InputError(f"tol {tol!r} is below {2 * SECTIONS} ulps of the PTC ceiling {ceiling!r}")

    # A cell outside the winding image holds no solution at any scale.
    try:
        integer_cycle_shift(basis, u)
    except NonIntegerWindingError:
        return SweepResult(u=u, ptc=None, curve=())
    guess = _predict_ptc(problem, basis, u, ceiling)
    if guess is None or not 0.0 <= guess <= ceiling:
        # The zero scale alone, for its verdict: rho = inf stops it once decided.
        scales, first_rho = np.zeros(1), math.inf
    else:
        lo = max(guess - 0.5 * tol, 0.0)
        hi = lo + tol
        if hi - lo > tol:  # lo + tol rounded up
            hi = math.nextafter(hi, lo)
        # The curve's first and last samples are the zero and lo probes.
        curve = np.linspace(0.0, lo, curve_points)
        scales, first_rho = np.concatenate(([0.0], curve[1:-1], [lo, hi])), rho
    # The rows ascend, so the bracket ends at the first that is not feasible.
    feasible, flows = probe(scales, first_rho)
    first = int(np.append(~feasible, True).argmax())
    if first == 0:
        return SweepResult(u=u, ptc=None, curve=())
    if first == scales.size - 1:  # hi: a lone zero row has returned above
        return result(lo, hi, curve, feasible[: curve.size], flows[: curve.size])
    # The ceiling is the bracket's upper end when even the last row was feasible.
    ends = np.append(scales, ceiling)
    lo, hi = float(ends[first - 1]), float(ends[first])

    cuts = np.arange(1, SECTIONS) / SECTIONS
    while hi - lo > tol:
        ends = np.concatenate(([lo], lo + (hi - lo) * cuts, [hi]))
        feasible, _ = probe(ends[1:-1], math.inf)
        # The bracket moves to the first probe that is not feasible (hi when
        # every probe is) and the point before it.
        first = int(np.append(~feasible, True).argmax())
        lo, hi = float(ends[first]), float(ends[first + 1])

    # The curve's flows are emitted, so they are solved to rho.  hi kept the
    # no-solution side of the bracket throughout the multisection.
    curve = np.linspace(0.0, lo, curve_points)
    return result(lo, hi, curve, *probe(curve, rho))


_RING12_SYM = {"supply_node": 11, "demand_node": 5}
_RING12_ASYM = {"supply_node": 11, "demand_node": 2}

# Modified supply/demand profile for the 24-bus reliability test system, in
# MW on a 100 MVA base; sums to zero exactly.
RTS24_MOD_P = (
    8.40, 9.27, -268.48, -99.14, -79.96, -68.63, 63.65, -142.41,
    -245.21, 95.83, 100.00, 0.00, -193.50, -143.39, -153.00, 0.00,
    0.00, 0.00, 26.57, 100.00, 0.00, 0.00, 990.00, 0.00,
)


def _ring_case(n: int, supply_node: int, demand_node: int, name: str) -> PowerCase:
    buses = [[1.0, 0.0] for _ in range(n)]
    buses[supply_node][1] = 1.0
    buses[demand_node][1] = -1.0
    branches = tuple((i, (i + 1) % n, 1.0) for i in range(n))
    return PowerCase(
        buses=tuple((v, p) for v, p in buses), branches=branches, name=name
    )


def _expo_case(s: int) -> PowerCase:
    if s < 1:
        raise InputError("expo(s) needs s >= 1")
    n = 4 * s + 1
    branches = []
    for k in range(s):
        base = 4 * k
        ring = [base, base + 1, base + 2, base + 3, base + 4]
        branches.extend((a, b, 1.0) for a, b in zip(ring, ring[1:]))
        branches.append((base + 4, base, 1.0))
    return PowerCase(
        buses=tuple((1.0, 0.0) for _ in range(n)),
        branches=tuple(branches),
        name=f"expo({s})",
    )


def builtin_case(name: str, data_path: str | Path | None = None) -> PowerCase:
    """Named study cases: ring12-sym, ring12-asym, pentagon, expo(s), rts24-mod.

    rts24-mod carries the modified supply/demand profile but needs the
    branch susceptances and voltage magnitudes from a user-supplied case
    file (they are not tabulated in public sources used here).
    """
    key = name.strip().lower()
    if key == "ring12-sym":
        return _ring_case(12, name="ring12-sym", **_RING12_SYM)
    if key == "ring12-asym":
        return _ring_case(12, name="ring12-asym", **_RING12_ASYM)
    if key == "pentagon":
        return PowerCase(
            buses=tuple((1.0, 0.0) for _ in range(5)),
            branches=tuple((i, (i + 1) % 5, 1.0) for i in range(5)),
            name="pentagon",
        )
    match = re.fullmatch(r"expo\((\d+)\)", key) or re.fullmatch(r"expo(\d+)", key)
    if match:
        return _expo_case(int(match.group(1)))
    if key == "rts24-mod":
        if data_path is None:
            raise MissingDataError(
                "rts24-mod needs a case file with branch susceptances and "
                "voltage magnitudes (buses[].v, branches[][i,j,b])"
            )
        doc = json.loads(Path(data_path).read_text())
        try:
            volts = [float(b["v"]) for b in doc["buses"]]
            if len(volts) != 24:
                raise InputError("rts24-mod expects 24 buses")
            branches = tuple((r[0], r[1], float(r[2])) for r in doc["branches"])
            return PowerCase(buses=tuple(zip(volts, RTS24_MOD_P)), branches=branches, base_mva=100.0, name="rts24-mod")
        except (KeyError, TypeError, IndexError, ValueError, InputError) as exc:
            raise InputError(f"bad rts24 data file: {exc}") from exc
    raise UnknownCaseError(f"unknown built-in case {name!r}")

