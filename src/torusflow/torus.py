"""Geometry of the n-torus: wrapped differences, winding numbers and
vectors, winding-cell membership via polytopes, and candidate enumeration.

The canonical phase representative lives in [-pi, pi).  Edge differences
are delta_e = wrap(theta_i - theta_j) for an edge (i, j); a winding number
is the net number of counterclockwise turns accumulated along a cycle's
node sequence, computed as (1/2pi) v_sigma^T delta.
"""
from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import (
    InputError,
    NonIntegerWindingError,
    PolytopeMembershipError,
    PuncturedTorusError,
)
from .graphs import Cycle, CycleBasis, WeightedGraph, _winding_ints

TWO_PI = 2.0 * math.pi
BOUNDARY_TOL = 1e-12
WINDING_INT_TOL = 1e-6
CHUNK_ROWS = 256  # rows of a winding-box block: solve_all decides a block in one stacked Newton solve
# Boxes of fewer cells get no cut pool: forming it costs about as much as
# deciding a dozen cells.  In-process on 14-20-node meshes (2-core x86_64,
# numpy 2.4.6), the cuts cost a 15-cell box 43 us net and saved a 25-cell
# box 37 us.
CUT_MIN_CELLS = 20
# The signs of a cut's other cycles, its least free cycle at +1: the second
# cycle of a pair, and the second and third of a triple.
_PAIR_SIGNS = np.array([[1], [-1]])
_TRIPLE_SIGNS = np.array([[[1], [1], [-1], [-1]], [[1], [-1], [1], [-1]]])


def wrap(x):
    """Wrap angles (scalar or array) into [-pi, pi)."""
    return np.mod(np.asarray(x, dtype=float) + math.pi, TWO_PI) - math.pi


def ccw_difference(alpha: float, beta: float) -> float:
    """Signed angular difference wrap(alpha - beta) in [-pi, pi)."""
    return float(wrap(float(alpha) - float(beta)))


def canonical_rotation(theta) -> np.ndarray:
    """Rotate so node 0 has phase 0 (representative modulo rotation), along
    the last axis."""
    theta = np.asarray(theta, dtype=float)
    return wrap(theta - theta[..., :1])


def edge_differences(g: WeightedGraph, theta) -> np.ndarray:
    """Wrapped differences (B^T theta)_e = wrap(theta_i - theta_j), along
    the last axis.

    Raises PuncturedTorusError when a difference has geodesic length pi
    (within 1e-12), where winding numbers are undefined; in a stack, it
    names the closest edge of the first row that has one.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (g.n,):
        raise InputError(f"theta must have length {g.n}")
    delta = wrap(g.differences(theta))
    gap = np.abs(delta + math.pi).reshape(math.prod(delta.shape[:-1]), g.m)
    hit = (gap < BOUNDARY_TOL).any(axis=1)
    if hit.any():
        bad = int(np.argmin(gap[hit.argmax()]))
        raise PuncturedTorusError(
            f"edge {g.edges[bad]} has difference of geodesic length pi"
        )
    return delta


def winding_number(cycle: Cycle, theta) -> int:
    """Integer winding of theta along the cycle's node sequence."""
    theta = np.asarray(theta, dtype=float)
    seq = np.array(cycle.nodes + (cycle.nodes[0],))
    steps = wrap(theta[seq[:-1]] - theta[seq[1:]])
    if np.any(np.abs(steps + math.pi) < BOUNDARY_TOL):
        raise PuncturedTorusError("cycle crosses the punctured-torus boundary")
    raw = float(np.sum(steps)) / TWO_PI
    w = round(raw)
    if abs(raw - w) > WINDING_INT_TOL:
        raise NonIntegerWindingError(
            f"raw winding {raw} is {abs(raw - w):.2e} from the nearest integer"
        )
    return int(w)


def winding_vector(basis: CycleBasis, theta) -> np.ndarray:
    """Componentwise winding numbers along the basis cycles."""
    delta = edge_differences(basis.graph, theta)
    return winding_vector_from_differences(basis, delta)


def winding_vector_from_differences(basis: CycleBasis, delta: np.ndarray) -> np.ndarray:
    raw = basis.matrix @ np.asarray(delta, dtype=float) / TWO_PI
    u = np.rint(raw)
    dev = np.max(np.abs(raw - u)) if raw.size else 0.0
    if dev > WINDING_INT_TOL:
        raise NonIntegerWindingError(
            f"raw winding vector {raw.tolist()} deviates {dev:.2e} from integers"
        )
    return u.astype(np.int64)


def feasible_winding_bounds(basis: CycleBasis, gamma: float) -> tuple[int, ...]:
    """Per-cycle bound floor(gamma * n_sigma / 2pi) on |u_i|."""
    if not 0.0 <= gamma < math.pi:
        raise InputError("gamma must lie in [0, pi)")
    return tuple(int(math.floor(gamma * L / TWO_PI)) for L in basis.lengths)


def count_feasible_winding_vectors(basis: CycleBasis, gamma: float) -> int:
    return math.prod(2 * b + 1 for b in feasible_winding_bounds(basis, gamma))


def winding_blocks(basis: CycleBasis, gamma: float) -> Iterator[np.ndarray]:
    """The candidate winding box, every |u_i| <= bound_i, in lexicographic
    order, as an iterator of (<= CHUNK_ROWS, k) int64 blocks.  A box of
    more than int64 cells raises InputError at the call, not at the first
    block.  A basis with no cycle gives the one (1, 0) block of u = ().

    Only the free coordinates (bound > 0) vary: row r of the box holds the
    mixed-radix digits of r, the last free coordinate fastest, so there is
    no array axis per cycle.
    """
    bounds = np.array(feasible_winding_bounds(basis, gamma), dtype=np.int64)
    free = np.flatnonzero(bounds)
    radix = (2 * bounds[free] + 1).tolist()
    total = math.prod(radix)
    if total > np.iinfo(np.int64).max:
        raise InputError(f"the winding box holds {total} cells, too many to enumerate")
    stride = np.array([math.prod(radix[i + 1:]) for i in range(len(radix))], dtype=np.int64)

    def block(start: int) -> np.ndarray:
        r = np.arange(start, min(start + CHUNK_ROWS, total), dtype=np.int64)
        U = np.zeros((r.size, bounds.size), dtype=np.int64)
        U[:, free] = r[:, None] // stride % radix - bounds[free]
        return U

    return map(block, range(0, total, CHUNK_ROWS))


def feasible_winding_vectors(basis: CycleBasis, gamma: float) -> Iterator[np.ndarray]:
    """All candidate winding vectors in lexicographic order: the rows of
    `winding_blocks`."""
    for block in winding_blocks(basis, gamma):
        yield from block


def winding_cuts(basis: CycleBasis, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Cycle-combination cuts on the winding box: (N, k) int64 rows a and
    (N,) int64 bounds b, such that every cell u that holds a solution has
    |a . u| <= b.

    sigma = a C is an integer cycle with sigma . delta = 2pi a . u, and
    |sigma . delta| <= gamma ||sigma||_1 on [-gamma, gamma]^m, so
    b = floor(gamma ||a C||_1 / 2pi), the floor of
    `feasible_winding_bounds` (a = e_i gives the per-cycle bound): a
    boundary solution within the feasibility slack is treated as that
    bound treats it.

    The pool holds the a with entries in {-1, 0, 1} and two or three
    nonzeros whose cycles are connected through shared edges, one of them
    free (bound > 0), with +1 on the least free one.  It keeps only the
    cuts that can bind inside the box, b < |a| . bounds; edge-disjoint
    supports never bind, because floor(x + y) >= floor(x) + floor(y).  A
    box of fewer than CUT_MIN_CELLS cells (one cell, say), or k < 2, has
    no cuts, and then nothing k x k is formed: such a box is decided
    whole for less than its pool would cost.  When no two cycles share an
    edge (expo(n)'s pentagons, say) the pool is empty, returned right after
    that test.
    """
    bounds = np.array(feasible_winding_bounds(basis, gamma), dtype=np.int64)
    k = bounds.size
    if k < 2 or math.prod((2 * bounds + 1).tolist()) < CUT_MIN_CELLS:
        return np.zeros((0, k), dtype=np.int64), np.zeros(0, dtype=np.int64)
    C = basis.matrix
    support = np.abs(C)
    shared = support @ support.T > 0
    if np.count_nonzero(shared) == k:  # only the diagonal: no cut can bind
        return np.zeros((0, k), dtype=np.int64), np.zeros(0, dtype=np.int64)
    free = bounds > 0
    f = np.flatnonzero(free)
    # Each support is listed once, from its least free cycle f: a partner
    # x is any cycle but f and the free cycles below it.
    index = np.arange(k)
    partner = ~(free & (index < f[:, None]))
    partner[np.arange(f.size), f] = False
    near = shared[f]
    pf, px = np.nonzero(near & partner)
    # {f, x, y}, x < y, is connected when two of its three pairs share
    # edges; the masks drop every diagonal entry of `shared`.
    links = near[:, :, None].astype(np.int8) + near[:, None, :] + shared
    ordered = index[:, None] < index
    tf, tx, ty = np.nonzero((links >= 2) & partner[:, :, None] & partner[:, None, :] & ordered)
    eye = np.eye(k, dtype=np.int64)
    A = np.concatenate((
        (eye[f[pf], None] + _PAIR_SIGNS * eye[px, None]).reshape(-1, k),
        (eye[f[tf], None] + _TRIPLE_SIGNS[0] * eye[tx, None] + _TRIPLE_SIGNS[1] * eye[ty, None]).reshape(-1, k),
    ))
    limits = np.floor(gamma * np.abs(A @ C).sum(axis=1) / TWO_PI).astype(np.int64)
    binds = limits < np.abs(A) @ bounds
    return A[binds], limits[binds]


def integrate_cells(g: WeightedGraph, delta) -> tuple[np.ndarray, np.ndarray]:
    """Phases (theta_0 = 0) integrating each row of a (B, m) stack delta,
    C delta = 2pi u, along the spanning tree, and the (B,) mask of empty
    cells.  Off the tree the phases differ from delta by 2pi z, C z = u; a
    row is empty when z is not integral (u has no integer cycle shift),
    which its wrapped off-tree residue shows."""
    delta = np.asarray(delta, dtype=float)
    theta = g.tree_phases(delta)
    residue = np.abs(wrap(g.differences(theta) - delta))
    return theta, residue.max(axis=-1, initial=0.0) > TWO_PI * WINDING_INT_TOL


def torus_to_polytope(basis: CycleBasis, theta) -> tuple[np.ndarray, np.ndarray]:
    """Map theta to its polytope coordinate: (x in 1^perp, winding vector u).

    B^T x + 2pi C^+ u reproduces the wrapped differences of theta.
    """
    g = basis.graph
    delta = edge_differences(g, theta)
    u = winding_vector_from_differences(basis, delta)
    x = g.tree_phases(delta - TWO_PI * (basis.matrix.T @ np.linalg.solve(basis.gram(np.ones(g.m)), u)))
    return x - np.mean(x), u


def polytope_to_torus(basis: CycleBasis, x, u) -> np.ndarray:
    """Phases whose wrapped differences equal B^T x + 2pi C^+ u, mean zero.

    Raises NonIntegerWindingError when u has no integer cycle shift.
    """
    g = basis.graph
    x = np.asarray(x, dtype=float)
    u = _winding_ints(u, basis.size)
    if x.shape != (g.n,):
        raise InputError(f"x must have length {g.n}")
    if abs(float(np.sum(x))) > 1e-9 * max(1.0, float(np.max(np.abs(x)))):
        raise PolytopeMembershipError("x is not orthogonal to the all-ones vector")
    target = g.differences(x) + TWO_PI * (basis.matrix.T @ np.linalg.solve(basis.gram(np.ones(g.m)), u))
    if np.max(np.abs(target)) >= math.pi:
        raise PolytopeMembershipError(
            "B^T x + 2pi C^+ u leaves the open cube (-pi, pi)^m"
        )
    theta, empty = integrate_cells(g, target[None, :])
    if empty[0]:
        raise NonIntegerWindingError(f"no integer shift for u={u.tolist()}: cell is empty")
    return wrap(theta[0] - np.mean(theta[0]))


def phases_equal_mod_rotation(a, b, tol: float = 1e-9) -> bool:
    """True when two phase vectors differ by a rigid rotation within tol."""
    d = wrap(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    aligned = wrap(d - d.flat[0])
    return bool(np.max(np.abs(aligned)) <= tol)
