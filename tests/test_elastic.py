import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import (
    balanced_vector,
    random_connected_graph,
    ring_graph,
    sin_problem,
    splay_state,
)
from torusflow import (
    ElasticEnergy,
    ElasticNetworkProblem,
    InputError,
    energy,
    gradient,
    phases_equal_mod_rotation,
    solve_all,
    solve_elastic,
)
from torusflow.graphs import WeightedGraph

TWO_PI = 2 * math.pi


def spacing_problem(graph, tau, gamma):
    return ElasticNetworkProblem.single_energy(
        graph, ElasticEnergy.spacing_potential(), tau, gamma
    )


def quartic_energy():
    """Spacing plus a second harmonic; H'' > 0 for |y| < 1.38."""
    return ElasticEnergy(
        energy=lambda y: 1 - np.cos(y) + 0.05 * (1 - np.cos(2 * y)),
        derivative=lambda y: np.sin(y) + 0.1 * np.sin(2 * y),
        second_derivative=lambda y: np.cos(y) + 0.2 * np.cos(2 * y),
        name="quartic",
    )


class TestElasticEnergy:
    def test_non_even_rejected(self):
        bad = ElasticEnergy(energy=np.sin, derivative=np.cos)
        with pytest.raises(InputError):
            ElasticNetworkProblem.single_energy(ring_graph(4), bad, np.zeros(4), 1.0)

    def test_wrong_derivative_rejected(self):
        bad = ElasticEnergy(energy=lambda y: 1 - np.cos(y), derivative=np.cos)
        with pytest.raises(InputError, match="finite differences"):
            bad.validate(1.0)

    def test_spacing_values(self):
        prob = spacing_problem(ring_graph(5), np.zeros(5), 1.4)
        assert energy(prob, np.zeros(5)) == 0.0
        assert energy(prob, splay_state(5)) == pytest.approx(
            5 * (1 - math.cos(TWO_PI / 5)), abs=1e-12
        )

    def test_rotation_invariance(self, rng):
        prob = spacing_problem(ring_graph(5), np.zeros(5), 1.4)
        theta = rng.uniform(-1.0, 1.0, 5)
        for s in rng.uniform(-math.pi, math.pi, 20):
            assert energy(prob, theta + s) == pytest.approx(energy(prob, theta))


def test_non_finite_torque_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="tau must be finite"):
            spacing_problem(ring_graph(4), [bad, -bad, 0.0, 0.0], 1.0)


class TestGradient:
    def test_zero_at_origin(self):
        prob = spacing_problem(ring_graph(5), np.zeros(5), 1.4)
        assert np.allclose(gradient(prob, np.zeros(5)), 0.0)

    def test_zero_at_splay(self):
        prob = spacing_problem(ring_graph(5), np.zeros(5), 1.4)
        assert np.max(np.abs(gradient(prob, splay_state(5)))) < 1e-12

    def test_matches_central_differences(self, rng):
        g = random_connected_graph(rng, 5)
        prob = spacing_problem(g, np.zeros(5), 1.4)
        for _ in range(50):
            theta = rng.uniform(-1.2, 1.2, 5) * 0.5
            fd = oracles.central_difference_gradient(lambda t: energy(prob, t), theta)
            assert np.max(np.abs(gradient(prob, theta) - fd)) < 1e-5

    def test_orthogonal_to_ones(self, rng):
        g = random_connected_graph(rng, 6)
        prob = spacing_problem(g, np.zeros(6), 1.4)
        for _ in range(10):
            grad = gradient(prob, rng.uniform(-1.0, 1.0, 6))
            assert abs(float(np.sum(grad))) < 1e-10

    def test_gradient_equals_divergence_of_flow(self, rng):
        g = random_connected_graph(rng, 6)
        prob = spacing_problem(g, np.zeros(6), 1.4)
        flow_prob = prob.derived_flow_problem()
        theta = rng.uniform(-1.0, 1.0, 6) * 0.8
        from torusflow import edge_differences

        delta = edge_differences(g, theta)
        f = flow_prob.edge_flows(delta)
        assert np.max(np.abs(gradient(prob, theta) - g.incidence @ f)) < 1e-10


class TestMixedEnergies:
    """Edges grouped by energy identity, against the per-edge scalar loop."""

    def _problem(self, rng):
        quartic = quartic_energy()
        spacing = ElasticEnergy.spacing_potential()
        g = random_connected_graph(rng, 7)
        energies = tuple(spacing if e % 3 else quartic for e in range(g.m))
        return ElasticNetworkProblem(graph=g, energies=energies, tau=np.zeros(7), gamma=1.2)

    def test_energy_and_gradient_match_per_edge_loop(self, rng):
        prob = self._problem(rng)
        g = prob.graph
        from torusflow import edge_differences

        for _ in range(10):
            theta = rng.uniform(-1.0, 1.0, g.n)
            delta = edge_differences(g, theta)
            ref_energy = sum(
                g.weights[e] * float(H.energy(np.array(delta[e])))
                for e, H in enumerate(prob.energies)
            )
            ref_h = np.array(
                [float(H.derivative(np.array(delta[e]))) for e, H in enumerate(prob.energies)]
            )
            assert energy(prob, theta) == pytest.approx(ref_energy, rel=1e-14, abs=1e-14)
            ref_grad = g.incidence @ (g.weight_vector * ref_h)
            assert np.max(np.abs(gradient(prob, theta) - ref_grad)) < 1e-14

    def test_one_flow_function_per_energy(self, rng):
        prob = self._problem(rng)
        funcs = prob.derived_flow_problem().flow_functions
        assert len({id(f) for f in funcs}) == 2
        for e, f in enumerate(funcs):
            assert f.name == ("sin" if e % 3 else "d/dy quartic")


class TestSolveElastic:
    def test_pentagon_three_critical_points(self):
        crit = solve_elastic(
            ring_graph(5), ElasticEnergy.spacing_potential(), np.zeros(5), 1.4
        )
        assert len(crit) == 3
        assert any(phases_equal_mod_rotation(t, np.zeros(5), 1e-8) for t in crit)
        assert any(phases_equal_mod_rotation(t, splay_state(5), 1e-7) for t in crit)
        assert any(phases_equal_mod_rotation(t, -splay_state(5), 1e-7) for t in crit)

    def test_tree_unique_flat_state(self):
        g = WeightedGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        crit = solve_elastic(g, ElasticEnergy.spacing_potential(), np.zeros(4), 1.0)
        assert len(crit) == 1
        assert phases_equal_mod_rotation(crit[0], np.zeros(4), 1e-10)

    def test_torque_round_trip(self, rng):
        g = random_connected_graph(rng, 5)
        tau = balanced_vector(rng, 5, 0.2)
        crit = solve_elastic(g, ElasticEnergy.spacing_potential(), tau, 1.3)
        assert crit
        prob = spacing_problem(g, tau, 1.3)
        for theta in crit:
            assert np.max(np.abs(gradient(prob, theta) - tau)) < 1e-7

    def test_quartic_energy_solves(self, rng):
        assert len(solve_elastic(ring_graph(5), quartic_energy(), np.zeros(5), 1.3)) == 3
        g = random_connected_graph(rng, 6)
        tau = balanced_vector(rng, 6, 0.1)
        crit = solve_elastic(g, quartic_energy(), tau, 1.2)
        assert crit
        prob = ElasticNetworkProblem.single_energy(g, quartic_energy(), tau, 1.2)
        for theta in crit:
            assert np.max(np.abs(gradient(prob, theta) - tau)) < 1e-7

    def test_second_derivative_required(self):
        # Slope certificates come from an analytic H'', never a finite difference.
        no_slope = replace(quartic_energy(), second_derivative=None)
        with pytest.raises(InputError, match="second_derivative"):
            solve_elastic(ring_graph(5), no_slope, np.zeros(5), 1.3)
        # A sine derivative needs none: the exact sine family is used.
        sine = ElasticEnergy(energy=lambda y: 1.0 - np.cos(y), derivative=np.sin)
        assert len(solve_elastic(ring_graph(5), sine, np.zeros(5), 1.4)) == 3

    def test_matches_flow_solver(self, rng):
        g = ring_graph(6)
        tau = balanced_vector(rng, 6, 0.05)
        crit = solve_elastic(g, ElasticEnergy.spacing_potential(), tau, 1.45)
        flow_sols = solve_all(sin_problem(g, tau, 1.45))
        assert len(crit) == len(flow_sols)
        for theta, sol in zip(crit, flow_sols):
            assert phases_equal_mod_rotation(theta, sol.theta, 1e-7)


class TestValidateOncePerGamma:
    def test_spacing_potential_is_one_shared_instance(self):
        assert ElasticEnergy.spacing_potential() is ElasticEnergy.spacing_potential()

    def test_check_runs_once_per_gamma(self, monkeypatch):
        spacing = ElasticEnergy.spacing_potential()
        grids = []
        linspace = np.linspace
        monkeypatch.setattr(np, "linspace", lambda *args, **kw: grids.append(args) or linspace(*args, **kw))
        for gamma in (0.3125, 0.3125, 0.4375, 0.3125, 0.4375):
            spacing.validate(gamma)
            spacing_problem(ring_graph(4), np.zeros(4), gamma)
        assert [args[2] for args in grids] == [201, 201]

    def test_failing_energy_raises_every_time(self):
        bad = ElasticEnergy(energy=np.sin, derivative=np.cos)
        for _ in range(3):
            with pytest.raises(InputError, match="is not even"):
                bad.validate(1.0)
