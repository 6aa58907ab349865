"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles (candidate
enumeration, exhaustive search, dense grids, closed-form scalar analysis)
so it shares no code path with the library being tested.
"""
from __future__ import annotations

import collections
import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def incidence(g) -> np.ndarray:
    """Dense n x m incidence matrix: +1 at an edge's first node, -1 at its second."""
    B = np.zeros((g.n, g.m))
    for e, (i, j) in enumerate(g.edges):
        B[i, e] = 1.0
        B[j, e] = -1.0
    return B


def laplacian(g) -> np.ndarray:
    """Dense weighted Laplacian B A B^T."""
    B = incidence(g)
    return (B * np.array(g.weights)) @ B.T


def laplacian_pinv(g) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the weighted Laplacian, by SVD."""
    return np.linalg.pinv(laplacian(g))


def right_inverse(C, a=1.0) -> np.ndarray:
    """A^{-1} C^T (C A^{-1} C^T)^{-1} for the diagonal a of A: the A-weighted
    right inverse of a full-row-rank C (C^+ for a = 1), by a dense solve
    against every column of C."""
    return (np.linalg.solve((C / a) @ C.T, C) / a).T


def arc_difference(alpha: float, beta: float) -> float:
    """Signed shortest-arc difference by candidate enumeration."""
    best = None
    for k in range(-3, 4):
        cand = alpha - beta + TWO_PI * k
        if best is None or abs(cand) < abs(best) - 1e-15:
            best = cand
    if abs(abs(best) - math.pi) < 1e-12:
        best = -math.pi  # the [-pi, pi) convention assigns the tie to -pi
    return best


def all_simple_cycles(n: int, edges) -> list[frozenset[int]]:
    """Every simple cycle of a small graph, as an edge-index set.

    Checks all edge subsets: a subset is a simple cycle iff it is nonempty,
    connected, and every touched node has degree exactly 2.
    """
    m = len(edges)
    cycles = []
    for mask in range(1, 1 << m):
        chosen = [e for e in range(m) if mask >> e & 1]
        degree: dict[int, int] = {}
        for e in chosen:
            i, j = edges[e]
            degree[i] = degree.get(i, 0) + 1
            degree[j] = degree.get(j, 0) + 1
        if any(d != 2 for d in degree.values()):
            continue
        nodes = sorted(degree)
        adj = {v: [] for v in nodes}
        for e in chosen:
            i, j = edges[e]
            adj[i].append(j)
            adj[j].append(i)
        seen = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == len(nodes):
            cycles.append(frozenset(chosen))
    return cycles


def cycle_vector_of_edge_set(n: int, edges, edge_set: frozenset[int]) -> np.ndarray:
    """A signed vector for an (unoriented) simple-cycle edge set."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in edge_set:
        i, j = edges[e]
        adj.setdefault(i, []).append((e, j))
        adj.setdefault(j, []).append((e, i))
    start = min(adj)
    vec = np.zeros(len(edges))
    prev, cur = None, start
    while True:
        options = [t for t in adj[cur] if t[1] != prev or len(adj[cur]) == 1]
        e, nxt = options[0]
        vec[e] = 1.0 if edges[e] == (cur, nxt) else -1.0
        prev, cur = cur, nxt
        if cur == start:
            break
    return vec


def exhaustive_minimum_basis_length(n: int, edges) -> int:
    """Minimal total length over all cycle bases, by exhaustive search."""
    m = len(edges)
    k = m - n + 1
    cycles = all_simple_cycles(n, edges)
    vectors = [cycle_vector_of_edge_set(n, edges, c) for c in cycles]
    lengths = [len(c) for c in cycles]
    best = None
    for combo in itertools.combinations(range(len(cycles)), k):
        mat = np.array([vectors[i] for i in combo])
        if np.linalg.matrix_rank(mat) < k:
            continue
        total = sum(lengths[i] for i in combo)
        if best is None or total < best:
            best = total
    return best


def grid_cell_minima(problem, basis, steps: int = 400):
    """Dense grid search over the reduced torus, reporting per winding cell
    the smallest balance residual among angle-feasible points and its phases.

    Only practical for n <= 4.  Points violating |delta|_inf <= gamma are
    excluded, so cells with no feasible point report (inf, None).
    """
    g = problem.graph
    n, m = g.n, g.m
    step = TWO_PI / steps
    axes = [np.zeros(1)] + [
        -math.pi + step * (np.arange(steps) + 0.5) for _ in range(n - 1)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    theta = np.stack([a.ravel() for a in mesh], axis=-1)
    idx = np.asarray(g.edges)
    delta = np.mod(theta[:, idx[:, 0]] - theta[:, idx[:, 1]] + math.pi, TWO_PI) - math.pi
    feasible = np.all(np.abs(delta) <= problem.gamma, axis=1)
    feasible &= np.all(np.abs(delta + math.pi) > 1e-9, axis=1)
    theta, delta = theta[feasible], delta[feasible]

    flows = np.empty_like(delta)
    for e, fn in enumerate(problem.flow_functions):
        flows[:, e] = g.weights[e] * np.asarray(fn.evaluate(delta[:, e]), dtype=float)
    residual = np.max(np.abs(flows @ incidence(g).T - problem.p), axis=1)

    raw = delta @ basis.matrix.T / TWO_PI
    cells = np.rint(raw).astype(int)
    out = {}
    for u in itertools.product(
        *[range(-b, b + 1) for b in _winding_box(basis, problem.gamma)]
    ):
        mask = np.all(cells == np.array(u), axis=1)
        if not np.any(mask):
            out[u] = (math.inf, None)
            continue
        sub = np.nonzero(mask)[0]
        best = sub[np.argmin(residual[sub])]
        out[u] = (float(residual[best]), theta[best])
    return out


def _winding_box(basis, gamma):
    return [int(math.floor(gamma * c.length / TWO_PI)) for c in basis.cycles]


def winding_cell_realisable(g, cycle_matrix, u, gamma: float, tol: float = 1e-9) -> bool:
    """Whether some phases put every edge difference of winding cell u in
    [-gamma, gamma]: a system of difference constraints, solved by
    Bellman-Ford (Cormen et al., Introduction to Algorithms, 24.4).

    The differences are delta = B^T theta + 2pi z with z integer and
    C z = u.  Shifting z by an integer cut B^T t (theta by 2pi t) changes
    nothing, so z may vanish on a BFS spanning tree; its off-tree part then
    solves the k x k system C[:, off-tree] z = u, and a fractional solution
    means the cell is empty.  Otherwise the cell is realisable iff the
    constraints -gamma - 2pi z_e <= theta_i - theta_j <= gamma - 2pi z_e
    have no negative cycle.
    """
    n, edges = g.n, list(g.edges)
    seen, frontier, tree = {0}, [0], set()
    while frontier:
        nxt = []
        for v in frontier:
            for e, (i, j) in enumerate(edges):
                if v in (i, j) and (w := j if v == i else i) not in seen:
                    seen.add(w)
                    tree.add(e)
                    nxt.append(w)
        frontier = nxt
    off = [e for e in range(len(edges)) if e not in tree]
    C = np.asarray(cycle_matrix, dtype=float)
    z = np.zeros(len(edges))
    z[off] = np.linalg.solve(C[:, off], np.asarray(u, dtype=float))
    if np.max(np.abs(z - np.rint(z)), initial=0.0) > 1e-9:
        return False
    z = np.rint(z)
    ends = np.asarray(edges).reshape(-1, 2)
    # theta_a - theta_b <= w is the arc b -> a of weight w.
    src = np.concatenate((ends[:, 1], ends[:, 0]))
    dst = np.concatenate((ends[:, 0], ends[:, 1]))
    weight = np.concatenate((gamma - TWO_PI * z, gamma + TWO_PI * z))
    dist = np.zeros(n)
    for _ in range(n):
        relaxed = dist.copy()
        np.minimum.at(relaxed, dst, dist[src] + weight)
        if np.all(relaxed >= dist - tol):
            return True
        dist = relaxed
    return False


def ring_two_path_ptc(n: int, supply: int, demand: int, u: int, gamma: float):
    """Closed-form PTC for a unit-weight sine ring with one source/sink pair.

    Solutions put a uniform flow f1 = sin(a) on the k1 edges of the
    ascending path supply->demand and f2 = sin(b) on the remaining k2
    edges, with k1 a - k2 b = -2 pi u and f1 + f2 = P; P is maximized at
    the largest feasible b.
    """
    k1 = (demand - supply) % n
    k2 = n - k1
    top = min(gamma, (gamma * k1 + TWO_PI * u) / k2)
    bot = max(-gamma, (-gamma * k1 + TWO_PI * u) / k2)
    if top < bot:
        return None
    phi = (-TWO_PI * u + k2 * top) / k1
    if phi < -gamma - 1e-12:
        return None
    return math.sin(phi) + math.sin(top)


def central_difference_gradient(fun, theta, step: float = 1e-6) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (fun(hi) - fun(lo)) / (2 * step)
    return out


def horton_minimum_basis(g):
    """Minimum cycle basis by the eager Horton construction.

    A full breadth-first search from every root (neighbours in edge input
    order) gives every candidate C(v, e) whose edge e = (x, y) closes tree
    paths from v in different branches.  All candidates are sorted by
    (length, root, sorted edge indices) and kept greedily under GF(2)
    independence until the cycle space is spanned.  Each kept edge set is
    walked from its smallest node towards that node's smaller neighbour; the
    walk gives the node sequence and the int64 vector (+1 where it leaves an
    edge at the edge's first node).  Returns one (nodes, vector) pair per
    cycle, in pick order.
    """
    adjacency = {v: [] for v in range(g.n)}
    for e, (i, j) in enumerate(g.edges):
        adjacency[i].append((e, j))
        adjacency[j].append((e, i))
    candidates = []
    for v in range(g.n):
        parent, parent_edge = [-1] * g.n, [-1] * g.n
        seen = [False] * g.n
        seen[v] = True
        order = [v]
        for x in order:
            for e, w in adjacency[x]:
                if not seen[w]:
                    seen[w] = True
                    parent[w], parent_edge[w] = x, e
                    order.append(w)
        branch = [v] * g.n
        for w in order[1:]:
            branch[w] = w if parent[w] == v else branch[parent[w]]
        for e, (x, y) in enumerate(g.edges):
            if branch[x] == branch[y] or e == parent_edge[x] or e == parent_edge[y]:
                continue
            edges = [e]
            for w in (x, y):
                while w != v:
                    edges.append(parent_edge[w])
                    w = parent[w]
            candidates.append((len(edges), v, tuple(sorted(edges))))
    candidates.sort()

    k = g.m - g.n + 1
    picked, rows = [], []
    for _, _, key in candidates:
        row = sum(1 << e for e in key)
        for other in rows:
            row = min(row, row ^ other)
        if row:
            rows.append(row)
            rows.sort(reverse=True)
            picked.append(key)
            if len(picked) == k:
                break
    assert len(picked) == k, "Horton candidates did not span the cycle space"

    cycles = []
    for key in picked:
        touch = {}
        for e in key:
            i, j = g.edges[e]
            touch.setdefault(i, []).append((j, e))
            touch.setdefault(j, []).append((i, e))
        start = min(touch)
        vector = np.zeros(g.m, dtype=np.int64)
        nodes, prev, (cur, e) = [start], start, min(touch[start])
        vector[e] = 1 if g.edges[e][0] == start else -1
        while cur != start:
            nodes.append(cur)
            (a, ea), (b, eb) = touch[cur]
            (step, e) = (b, eb) if a == prev else (a, ea)
            vector[e] = 1 if g.edges[e][0] == cur else -1
            prev, cur = cur, step
        cycles.append((tuple(nodes), vector))
    return cycles


def tree_bfs(g, tree_edges):
    """Parents, parent edges and order of a queue BFS from node 0 that
    follows only `tree_edges`, each node's edges taken in edge input order
    (-1 for the root's parent and parent edge)."""
    tree = set(tree_edges)
    incident = {v: [] for v in range(g.n)}
    for e, (i, j) in enumerate(g.edges):
        if e in tree:
            incident[i].append((e, j))
            incident[j].append((e, i))
    parent, parent_edge, order = [-1] * g.n, [-1] * g.n, []
    visited, queue = {0}, collections.deque([0])
    while queue:
        v = queue.popleft()
        order.append(v)
        for e, w in incident[v]:
            if w not in visited:
                visited.add(w)
                parent[w], parent_edge[w] = v, e
                queue.append(w)
    return parent, parent_edge, order


def cycles_share_an_edge(cycle_matrix) -> bool:
    """Whether two rows of a basis's cycle matrix both use some edge, by
    intersecting the rows' edge sets pair by pair."""
    edge_sets = [set(np.flatnonzero(row).tolist()) for row in np.asarray(cycle_matrix)]
    return any(a & b for i, a in enumerate(edge_sets) for b in edge_sets[i + 1 :])
