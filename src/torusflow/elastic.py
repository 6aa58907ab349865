"""Elastic network problems, reduced to flow problems through the
derivative correspondence h_e = H_e'.

Critical points of the edge-sum energy under the angle constraint are
exactly the phase components of flow-problem solutions with p = tau.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .errors import InputError
from .flows import DEFAULT_RHO, FlowFunction, FlowNetworkProblem, Solution, identity_groups, solve_all
from .graphs import CycleBasis, WeightedGraph
from .torus import edge_differences

FD_STEP = 1e-6
FD_TOL = 1e-5


@dataclass(frozen=True, eq=False)
class ElasticEnergy:
    """Even 2pi-periodic edge energy H_e with its analytic derivatives.

    H' and H'' must be supplied (H'' may be omitted when H' is np.sin,
    whose exact sine family is used): the monotonicity certificate of the
    derived flow problem needs trustworthy slope bounds, so numerical
    differentiation is refused by construction.
    """

    energy: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    second_derivative: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "callable"
    params: dict = field(default_factory=dict)

    def validate(self, gamma: float) -> None:
        """Check evenness of H and finite-difference consistency of H'.  A
        pass is recorded per gamma, so each gamma is checked once."""
        passed = self.__dict__.setdefault("_valid_gammas", set())
        if gamma in passed:
            return
        grid = np.linspace(-max(gamma, 0.1), max(gamma, 0.1), 201)
        vals = np.asarray(self.energy(grid), dtype=float)
        if np.max(np.abs(vals - vals[::-1])) > 1e-12:
            raise InputError(f"elastic energy {self.name!r} is not even")
        fd = (
            np.asarray(self.energy(grid + FD_STEP), dtype=float)
            - np.asarray(self.energy(grid - FD_STEP), dtype=float)
        ) / (2 * FD_STEP)
        dv = np.asarray(self.derivative(grid), dtype=float)
        if np.max(np.abs(fd - dv)) > FD_TOL:
            raise InputError(
                f"derivative of {self.name!r} disagrees with finite differences"
            )
        passed.add(gamma)

    def flow_function(self) -> FlowFunction:
        if self.second_derivative is None:
            raise InputError(
                f"elastic energy {self.name!r} needs an analytic second_derivative"
            )
        return FlowFunction(
            evaluate=self.derivative,
            derivative=self.second_derivative,
            name=f"d/dy {self.name}",
            params=dict(self.params),
        )

    @staticmethod
    @cache
    def spacing_potential() -> "ElasticEnergy":
        """The built-in energy H(y) = 1 - cos(y), as one shared instance (not
        to be mutated), so that a process checks it once per gamma."""
        return ElasticEnergy(
            energy=lambda y: 1.0 - np.cos(y),
            derivative=np.sin,
            second_derivative=np.cos,
            name="spacing",
        )


@dataclass(frozen=True, eq=False)
class ElasticNetworkProblem:
    """Elastic network: graph, per-edge energies, torque tau, angle bound."""

    graph: WeightedGraph
    energies: tuple[ElasticEnergy, ...]
    tau: np.ndarray
    gamma: float

    def __post_init__(self):
        g = self.graph
        energies = self.energies
        if isinstance(energies, ElasticEnergy):
            energies = (energies,) * g.m
        energies = tuple(energies)
        if len(energies) != g.m:
            raise InputError("need one elastic energy per edge")
        object.__setattr__(self, "energies", energies)
        tau = np.asarray(self.tau, dtype=float)
        if tau.shape != (g.n,):
            raise InputError(f"tau must have length {g.n}")
        if not np.isfinite(tau).all():
            raise InputError("tau must be finite")
        if abs(float(np.sum(tau))) > 1e-10 * max(1.0, float(np.max(np.abs(tau)))):
            raise InputError("torque vector tau must sum to zero")
        object.__setattr__(self, "tau", tau)
        if not 0.0 <= self.gamma < math.pi:
            raise InputError("gamma must lie in [0, pi)")
        for H, _ in identity_groups(energies):
            H.validate(self.gamma)

    @classmethod
    def single_energy(cls, graph, energy, tau, gamma) -> "ElasticNetworkProblem":
        return cls(graph=graph, energies=(energy,) * graph.m, tau=tau, gamma=gamma)

    def derived_flow_problem(self) -> FlowNetworkProblem:
        """The equivalent flow problem with h_e = H_e' and p = tau.

        Edges sharing an energy share its flow function; a sine derivative
        is the shared `FlowFunction.sin_family()`, with its exact inner
        inverse and its certificates.
        """
        funcs = np.empty(self.graph.m, dtype=object)
        for H, idx in identity_groups(self.energies):
            funcs[idx] = FlowFunction.sin_family() if H.derivative is np.sin else H.flow_function()
        return FlowNetworkProblem(
            graph=self.graph,
            flow_functions=tuple(funcs),
            p=self.tau,
            gamma=self.gamma,
        )


def energy(problem: ElasticNetworkProblem, theta) -> float:
    """Total elastic energy sum_e a_ij H_e(theta_i - theta_j)."""
    delta = edge_differences(problem.graph, theta)
    return sum(
        float(problem.graph.weight_vector[idx] @ H.energy(delta[idx]))
        for H, idx in identity_groups(problem.energies)
    )


def gradient(problem: ElasticNetworkProblem, theta) -> np.ndarray:
    """Nodal gradient of the energy; always orthogonal to the ones vector."""
    g = problem.graph
    delta = edge_differences(g, theta)
    h_vals = np.empty(g.m)
    for H, idx in identity_groups(problem.energies):
        h_vals[idx] = H.derivative(delta[idx])
    return g.divergence(g.weight_vector * h_vals)


def solve_elastic(
    graph: WeightedGraph,
    energies,
    tau,
    gamma: float,
    rho: float = DEFAULT_RHO,
    basis: CycleBasis | None = None,
) -> list[np.ndarray]:
    """All critical points of the constrained elastic problem.

    Builds the derived flow problem and returns the phase vectors of its
    solutions (canonical representatives modulo rotation).
    """
    problem = ElasticNetworkProblem(graph=graph, energies=energies, tau=tau, gamma=gamma)
    solutions: list[Solution] = solve_all(
        problem.derived_flow_problem(), rho=rho, basis=basis
    )
    return [s.theta for s in solutions]
