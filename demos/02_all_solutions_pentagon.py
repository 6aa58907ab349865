"""Every solution of the unit pentagon flow network, cell by cell.

Shows the candidate winding box, the paper's contraction iteration inside
each cell next to the certified Newton solve that replaces it in
solve_all, feasibility filtering, phase recovery, and the certification
report that accompanies every returned solution.
"""
import math

import numpy as np

from torusflow import (
    FlowFunction,
    FlowNetworkProblem,
    WeightedGraph,
    check_feasibility,
    decompose_flow,
    feasible_winding_vectors,
    fundamental_cycle_basis,
    loop_flow,
    projection_iteration,
    solve_all,
)
from torusflow.flows import decide_cell

pentagon = WeightedGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
problem = FlowNetworkProblem.single_family(
    pentagon, FlowFunction.sin_family(), np.zeros(5), gamma=1.4
)
basis = fundamental_cycle_basis(pentagon)

print("=== problem ===")
print(f"  unit 5-ring, sine flows, p = 0, gamma = {problem.gamma}")
print(f"  contraction rate |I - Lmin/Lmax| = {problem.contraction_rate:.5f}")
print(f"  basis cycle {basis.cycles[0].nodes}, candidate box "
      f"{[tuple(u) for u in feasible_winding_vectors(basis, problem.gamma)]}")

print("\n=== per-cell iteration ===")
for u in feasible_winding_vectors(basis, problem.gamma):
    flow, report = projection_iteration(problem, basis, u)
    feasible, margins = check_feasibility(problem, flow)
    tag = "feasible" if feasible else f"infeasible (margin {margins.min():+.4f})"
    _, newton = decide_cell(problem, basis, u)
    print(f"  u = {int(u[0]):+d}: {report.iterations:3d} iterations, "
          f"final step {report.final_step:.1e}, {tag}")
    print(f"          Newton: {newton.iterations} steps, certified error bound "
          f"{newton.error_bound:.1e}, verdict "
          f"{'feasible' if newton.feasible else 'infeasible' if newton.decided else 'undecided'}")

print("\n=== certified solutions ===")
solutions = solve_all(problem, rho=1e-10, basis=basis)
for sol in solutions:
    lf = loop_flow(basis.cycles[0], sol.f)
    print(f"  u = {int(sol.u[0]):+d}: theta = {np.round(sol.theta, 4)}")
    print(f"           flows = {np.round(sol.f, 5)}  loop flow = {lf:+.6f}")
    print(f"           residuals: balance {sol.report.balance_residual:.1e}, "
          f"physics {sol.report.physics_residual:.1e}, "
          f"margin {sol.report.constraint_margin:+.4f}")

splay = solutions[-1]
f_cut, f_cyc = decompose_flow(pentagon, splay.f)
print("\n=== decomposition of the splay-state flow ===")
print(f"  cutset part: {np.round(f_cut, 8)} (zero: p = 0)")
print(f"  cycle part : {np.round(f_cyc, 5)}")
print(f"  loop flow 5*sin(2*pi/5) = {5 * math.sin(2 * math.pi / 5):.6f}")
