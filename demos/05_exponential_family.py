"""A family where the number of solutions grows exponentially.

Chained pentagons (s rings sharing single nodes) have 3^s solutions at
gamma in [2*pi/5, pi/2): each ring independently carries loop flow
-1, 0, or +1.  The solver's work is one certified Newton solve per
candidate, so its runtime scales with 3^s while each solve stays cheap.
"""
import time

from torusflow import builtin_case, case_to_problem, fundamental_cycle_basis, solve_all
from torusflow.torus import count_feasible_winding_vectors

GAMMA = 1.4

print(f"{'s':>3} {'nodes':>6} {'edges':>6} {'candidates':>11} "
      f"{'solutions':>10} {'seconds':>8}")
for s in (1, 2, 3, 4):
    case = builtin_case(f"expo({s})")
    problem = case_to_problem(case, GAMMA)
    basis = fundamental_cycle_basis(problem.graph)
    candidates = count_feasible_winding_vectors(basis, GAMMA)
    start = time.perf_counter()
    solutions = solve_all(problem, basis=basis)
    elapsed = time.perf_counter() - start
    print(f"{s:>3} {case.n:>6} {len(case.branches):>6} {candidates:>11} "
          f"{len(solutions):>10} {elapsed:>8.3f}")
    assert len(solutions) == 3 ** s

print("\nEvery candidate winding vector in the box is realized: the rings")
print("decouple, so feasibility never prunes a cell in this family.")
