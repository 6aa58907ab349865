"""Weighted-graph algebra on the edge list and the spanning tree (edge
differences, divergences, tree and cutset flows, tree integration), cycle
bases and the cycle-edge matrix.  The dense incidence, pseudoinverse,
integer-shift and cycle-projection routines are references for the tests.

Conventions
-----------
* Nodes are 0-based integers, edges are ordered, oriented pairs (i, j).
* The incidence matrix B has +1 at an edge's first node and -1 at its
  second, so (B^T x)_e = x_i - x_j.
* A fundamental cycle is stored with the orientation in which its defining
  non-tree edge is traversed negatively (coefficient -1).  With the
  wrapped-difference convention of :mod:`torusflow.torus` this makes the
  winding number of a counterclockwise phase sequence positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import sha256
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BasisKindError,
    InputError,
    NonIntegerWindingError,
    RankError,
    SingularityError,
    WeightError,
)

RANK_RTOL = 1e-8
# `CycleBasis.gram` assembles C diag(w) C^T from the edge-pair pattern when
# the dense product would take at least this many multiply-adds per pattern
# triple.  With one BLAS thread (2-core x86_64, numpy 2.4.6) a triple costs
# 10-15 ns and a multiply-add of a large stacked product about 0.04 ns, so
# the paths tie near 300: on the 14x14 lattice's fundamental basis (ratio
# 240) a 256-row stack of Hessians took 117 ms by pattern against 97 ms
# dense, while its minimum basis (ratio 7,997) took 4.8 ms against 100 ms.
# Below the ratio the dense product also wins on fixed cost: at k <= 8
# (ratio 7-26) one Hessian takes 1.9 us dense against 4.1 us by pattern.
GRAM_PATTERN_RATIO = 300


@dataclass(frozen=True)
class WeightedGraph:
    """Connected undirected graph with ordered, oriented, weighted edges.
    Node ids are read strictly (`_wire_int`), and more than m + 1 nodes
    raise SingularityError before anything is sized by n."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", _wire_int(self.n))
        edges = tuple((_wire_int(i), _wire_int(j)) for i, j in self.edges)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "weights", weights)
        if self.n < 1:
            raise InputError("graph needs at least one node")
        if len(weights) != len(edges):
            raise InputError("edges and weights must have the same length")
        seen = set()
        for i, j in edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InputError(f"edge ({i}, {j}) references a missing node")
            if i == j:
                raise InputError(f"self-loop at node {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InputError(f"duplicate undirected edge {key}")
            seen.add(key)
        if not all(0.0 < w < math.inf for w in weights):
            raise WeightError("all edge weights must be finite and strictly positive")
        if self.n > len(edges) + 1:
            raise SingularityError("graph is not connected")
        self.tree  # raises SingularityError when the graph is not connected

    @classmethod
    def from_edges(cls, n, edges, weights=None) -> "WeightedGraph":
        edges = tuple(edges)
        if weights is None:
            weights = (1.0,) * len(edges)
        return cls(n=n, edges=edges, weights=tuple(weights))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def cycle_space_dim(self) -> int:
        return self.m - self.n + 1

    @cached_property
    def incidence(self) -> np.ndarray:
        """n x m incidence matrix B with (B^T x)_e = x_i - x_j."""
        B = np.zeros((self.n, self.m))
        B[self.ends[0], np.arange(self.m)] = 1.0
        B[self.ends[1], np.arange(self.m)] = -1.0
        return B

    @cached_property
    def weight_vector(self) -> np.ndarray:
        """Diagonal of the edge weight matrix A."""
        return np.array(self.weights)

    @cached_property
    def tree(self) -> tuple[list[int], list[int], list[int]]:
        """Parents, parent edges and BFS order of the spanning tree from node
        0.  Each node's children follow its tree edges in `adjacency` order:
        in a tree, every edge at v but v's parent edge leads to a child."""
        in_tree = set(spanning_tree(self))
        parent, parent_edge, order = [-1] * self.n, [-1] * self.n, [0]
        for v in order:
            for e, w in self.adjacency[v]:
                if e in in_tree and e != parent_edge[v]:
                    parent[w], parent_edge[w] = v, e
                    order.append(w)
        return parent, parent_edge, order

    def tree_flow(self, p) -> np.ndarray:
        """The flow balancing p (B f = p) that uses tree edges only; O(n)."""
        parent, parent_edge, order = self.tree
        subtree = [float(x) for x in p]
        f = np.zeros(self.m)
        for v in reversed(order[1:]):
            e = parent_edge[v]
            f[e] = subtree[v] if self.edges[e][0] == v else -subtree[v]
            subtree[parent[v]] += subtree[v]
        return f

    def cutset_flow(self, p, basis: CycleBasis | None = None) -> np.ndarray:
        """The balanced flow A B^T L^+ p: the tree flow f of p minus its
        A^{-1}-orthogonal cycle part C^T W^{-1} C A^{-1} f, W = C A^{-1} C^T,
        with W^{-1} = `basis.weighted_gram_inverse`."""
        f = self.tree_flow(p)
        if basis is None:
            basis = fundamental_cycle_basis(self)
        C = basis.matrix
        return f - (C @ (f / self.weight_vector)) @ basis.weighted_gram_inverse @ C

    def tree_phases(self, delta) -> np.ndarray:
        """Phases with theta_0 = 0 whose tree-edge differences equal delta,
        along the last axis, so a (B, m) stack gives (B, n) phases; one numpy
        step per depth of the spanning tree, for every row at once."""
        delta = np.asarray(delta, dtype=float)
        theta = np.zeros(delta.shape[:-1] + (self.n,))
        for nodes, parents, edges, signs in self._tree_levels:
            theta[..., nodes] = theta[..., parents] + signs * delta[..., edges]
        return theta

    @cached_property
    def _tree_levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Per depth of the spanning tree below node 0: its nodes, their
        parents and parent edges, and +1 / -1 where an edge starts / ends at
        the child (so theta_child = theta_parent + sign * delta_edge)."""
        parent, parent_edge, order = self.tree
        depth = [0] * self.n
        levels: dict[int, list[int]] = {}
        for v in order[1:]:  # BFS order: a parent comes before its children
            depth[v] = depth[parent[v]] + 1
            levels.setdefault(depth[v], []).append(v)
        out = []
        for nodes in levels.values():
            edges = [parent_edge[v] for v in nodes]
            signs = [1.0 if self.edges[e][0] == v else -1.0 for v, e in zip(nodes, edges)]
            out.append((np.array(nodes), np.array([parent[v] for v in nodes]), np.array(edges), np.array(signs)))
        return out

    @cached_property
    def adjacency(self) -> dict[int, list[tuple[int, int]]]:
        """node -> list of (edge index, neighbour), in edge input order."""
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(self.n)}
        for e, (i, j) in enumerate(self.edges):
            adj[i].append((e, j))
            adj[j].append((e, i))
        return adj

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second node of every edge, as index arrays."""
        idx = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        return idx[:, 0], idx[:, 1]

    def differences(self, x) -> np.ndarray:
        """B^T x, i.e. x_i - x_j per edge (i, j), along the last axis; O(m)."""
        i, j = self.ends
        x = np.asarray(x, dtype=float)
        return x[..., i] - x[..., j]

    def divergence(self, f) -> np.ndarray:
        """B f, the net outflow at every node, along the last axis; O(m).

        Row r's edges land in bins r n .. r n + n - 1 of one `bincount`, in
        edge order, so each row sums exactly as it would on its own."""
        i, j = self.ends
        f = np.asarray(f, dtype=float)
        rows = f.shape[:-1]
        count = math.prod(rows)
        offset = self.n * np.arange(count)[:, None]
        flat = f.reshape(count, self.m).ravel()
        size = count * self.n
        out = np.bincount((i + offset).ravel(), flat, size) - np.bincount((j + offset).ravel(), flat, size)
        return out.reshape(rows + (self.n,))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edges": [[i, j, w] for (i, j), w in zip(self.edges, self.weights)],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "WeightedGraph":
        try:
            rows = doc["edges"]
            weights = [float(r[2]) if len(r) > 2 else 1.0 for r in rows]
            return cls.from_edges(doc["n"], [(r[0], r[1]) for r in rows], weights)
        except (KeyError, TypeError, IndexError, ValueError, InputError) as exc:
            raise InputError(f"bad graph document: {exc}") from exc


def _wire_int(x) -> int:
    """The int that a document's number x stands for.  Raises InputError on a
    bool, a non-number, a non-integral value (1.7, inf, NaN) or one outside
    int64, which int(x) would take, truncate or overflow on."""
    if type(x) is int and -(2**63) <= x < 2**63:  # most ids: one type check
        return x
    integral = isinstance(x, (int, np.integer)) or isinstance(x, (float, np.floating)) and float(x).is_integer()
    if isinstance(x, bool) or not integral or not -(2**63) <= x < 2**63:
        raise InputError(f"{x!r} is not an int64 integer")
    return int(x)


def _winding_ints(u, k: int, ndim: int = 1) -> np.ndarray:
    """u as an int64 winding vector of length k, or with ndim = 2 as a
    (B, k) stack of them.  Raises InputError on another shape, or on an
    entry that is not an int64 integer (0.7, inf, NaN, a bool), which
    astype(int64) would truncate or wrap."""
    a = np.asarray(u)
    if a.ndim != ndim or a.shape[-1:] != (k,):
        want = f"a winding vector of length {k}" if ndim == 1 else f"a (B, {k}) stack of winding vectors"
        raise InputError(f"need {want}, not shape {a.shape}")
    if a.dtype.kind == "i":
        return a.astype(np.int64, copy=False)
    if a.dtype.kind in "uf":
        x = a.astype(float)
        bad = ~(np.isfinite(x) & (x == np.rint(x)) & (-(2.0**63) <= x) & (x < 2.0**63))
        if not bad.any():
            return a.astype(np.int64)
        raise InputError(f"winding vectors must hold int64 integers, not {a[bad][0].item()!r}")
    raise InputError(f"winding vectors must hold int64 integers, not {a.dtype} values")


def deflated_pinv(lap: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a symmetric matrix whose nullspace is span{1}.

    Uses L^+ = (L + (1/n) 11^T)^{-1} - (1/n) 11^T, valid for Laplacians of
    connected graphs; avoids a full SVD.
    """
    n = lap.shape[0]
    shift = np.full((n, n), 1.0 / n)
    try:
        inv = np.linalg.inv(lap + shift)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"deflated solve failed: {exc}") from exc
    return inv - shift


def spanning_tree(g: WeightedGraph) -> tuple[int, ...]:
    """Edge indices of the deterministic spanning tree.

    Scans edges in input order and keeps every edge that joins two distinct
    components (the first spanning tree in edge-index order), so bases built
    on top of it are reproducible.
    """
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree: list[int] = []
    for e, (i, j) in enumerate(g.edges):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append(e)
    if len(tree) != g.n - 1:
        raise SingularityError("graph is not connected")
    return tuple(tree)


@dataclass(frozen=True)
class Cycle:
    """A simple cycle: cyclic node sequence plus its signed edge vector.
    Node ids are read strictly (`_wire_int`)."""

    nodes: tuple[int, ...]
    vector: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(map(_wire_int, self.nodes)))
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=np.int64))

    @property
    def length(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_nodes(cls, g: WeightedGraph, nodes: Sequence[int]) -> "Cycle":
        """Build the signed vector for a node sequence (closure implied)."""
        nodes = [_wire_int(v) for v in nodes]
        if nodes[0] == nodes[-1]:
            nodes = nodes[:-1]
        if len(nodes) < 3:
            raise InputError("a cycle needs at least three nodes")
        vec = np.zeros(g.m, dtype=np.int64)
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            e = next((e for e, w in g.adjacency.get(a, ()) if w == b), None)
            if e is None:
                raise InputError(f"no edge between consecutive nodes {a}, {b}")
            if vec[e] != 0:
                raise InputError("cycle repeats an edge")
            vec[e] = 1 if g.edges[e][0] == a else -1
        return cls(nodes=tuple(nodes), vector=vec)


@dataclass(frozen=True)
class CycleBasis:
    """A basis of m - n + 1 signed cycle vectors for Ker(B)."""

    graph: WeightedGraph
    cycles: tuple[Cycle, ...]
    kind: str  # "fundamental" | "minimum" | "explicit"

    @property
    def size(self) -> int:
        return len(self.cycles)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Cycle-edge matrix: one row per basis cycle."""
        return np.array([c.vector for c in self.cycles], dtype=float).reshape(self.size, self.graph.m)

    @cached_property
    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge-pair pattern of C: for each edge e and each ordered pair
        (i, j) of cycles through e, the entry i k + j of a k x k matrix, the
        edge e and C_ie C_je; in edge order, then by i and j.

        Entry (i, j) of C diag(w) C^T sums C_ie C_je w_e over its triples,
        and cycles i != j share an edge exactly when (i, j) has one."""
        C = self.matrix
        k, m = C.shape
        values = C.ravel()
        nonzero = np.flatnonzero(values != 0.0)
        nonzero = nonzero[np.argsort(nonzero % m, kind="stable")]  # by edge, then by cycle
        cycle, edge = np.divmod(nonzero, m)
        # Nonzero a pairs with the count[a] nonzeros of its edge, from that
        # edge's first one, first[a]; its block of pairs starts at start[a].
        count = np.bincount(edge, minlength=m)[edge]
        first = np.searchsorted(edge, edge)
        start = np.cumsum(count) - count
        a = np.repeat(np.arange(edge.size), count)
        b = np.arange(a.size) - np.repeat(start - first, count)
        coef = values[nonzero]
        return cycle[a] * k + cycle[b], edge[a], coef[a] * coef[b]

    def gram(self, w: np.ndarray) -> np.ndarray:
        """C diag(w) C^T for a float weight vector w, or one per row of a
        (..., m) float stack w: (..., k, k).

        When the dense product would take at least GRAM_PATTERN_RATIO
        multiply-adds (k^2 m) per triple of `edge_pairs`, the Grams are
        assembled from those triples by one `bincount`, row r's in bins
        r k^2 .. (r + 1) k^2 - 1, so that each row sums as it would on its
        own; otherwise by the stacked product (C * w) @ C^T.
        """
        C = self.matrix
        if not self._gram_by_pattern:
            return (C * w[..., None, :]) @ C.T
        k, m = C.shape
        target, edge, coef = self.edge_pairs
        rows = w.shape[:-1]
        count = math.prod(rows)
        offset = k * k * np.arange(count)[:, None]
        values = w.reshape(count, m)[:, edge] * coef
        out = np.bincount((target + offset).ravel(), values.ravel(), count * k * k)
        return out.reshape(rows + (k, k))

    @cached_property
    def _gram_by_pattern(self) -> bool:
        """Whether `gram` takes the pattern path.  A cycle of length L puts
        at least L triples in `edge_pairs`, so a basis that falls short of
        the ratio by its summed lengths never builds the pattern."""
        work = self.size**2 * self.graph.m
        return GRAM_PATTERN_RATIO * sum(self.lengths) <= work and GRAM_PATTERN_RATIO * self.edge_pairs[0].size <= work

    @cached_property
    def disjoint(self) -> bool:
        """Whether no two cycles share an edge, so that every C diag(w) C^T
        is diagonal, with the sums of w over each cycle's edges on it.  Such
        cycles' lengths sum to at most m, so a basis whose lengths sum to
        more is decided without looking at C."""
        return sum(self.lengths) <= self.graph.m and bool(np.all(np.count_nonzero(self.matrix, axis=0) <= 1))

    @cached_property
    def weighted_gram_inverse(self) -> np.ndarray:
        """W^{-1} for the k x k Gram W = C A^{-1} C^T.  The A-weighted right
        inverse G = A^{-1} C^T W^{-1} of C applies as x G^T = (x W^{-1} C) / a
        and G^T f = W^{-1} C (f / a), without forming G."""
        return np.linalg.inv(self.gram(1.0 / self.graph.weight_vector))

    @cached_property
    def longest_cycle(self) -> int:
        """The most edges on one basis cycle: the terms of a loop residual."""
        return max(self.lengths, default=0)

    @cached_property
    def off_tree(self) -> tuple[tuple[int, ...], np.ndarray]:
        """The edges off the graph's spanning tree, in edge order, and the
        integer block T of C on them (k x k for a basis of k cycles).

        A vector of Ker(B) is fixed by its off-tree entries, so the rows are
        independent exactly when T is nonsingular, and C z = u has an
        integer solution exactly when T^{-1} u is integral.  A fundamental
        basis's T is -I."""
        g = self.graph
        off = np.ones(g.m, dtype=bool)
        off[g.tree[1][1:]] = False
        edges = np.flatnonzero(off)
        return tuple(edges.tolist()), self.matrix[:, edges].astype(np.int64)

    @cached_property
    def lengths(self) -> tuple[int, ...]:
        return tuple(c.length for c in self.cycles)

    @cached_property
    def fingerprint(self) -> str:
        """Short hash of the cycle node sequences; tags winding vectors."""
        payload = ";".join(",".join(map(str, c.nodes)) for c in self.cycles)
        return sha256(payload.encode()).hexdigest()[:16]

    def validate(self) -> None:
        """Raise RankError unless the rows are k = m - n + 1 independent
        vectors of Ker(B).

        `explicit_cycle_basis` calls it; `fundamental_cycle_basis` and
        `minimum_cycle_basis` do not, as their rows pass by construction:
        each is a closed walk, so it lies in Ker(B); a fundamental basis's
        off-tree block is -I; and the minimum basis's GF(2) greedy keeps
        rows independent mod 2, so that block's integer determinant is odd.
        """
        g = self.graph
        if self.size != g.cycle_space_dim:
            raise RankError("wrong number of basis cycles")
        # C B^T: the divergence of every cycle row.
        bad = np.flatnonzero(np.any(g.divergence(self.matrix) != 0, axis=1))
        if bad.size:
            raise RankError(f"cycle vector of {self.cycles[bad[0]].nodes} is not in Ker(B)")
        # The off-tree block's determinant is an integer: nonzero means at
        # least 1 in size.
        sign, logdet = np.linalg.slogdet(self.off_tree[1])
        if sign == 0 or logdet < math.log(0.5):
            raise RankError("cycle vectors are not linearly independent")


def explicit_cycle_basis(g: WeightedGraph, node_sequences: Iterable[Sequence[int]]) -> CycleBasis:
    """Cycle basis from user-supplied node sequences (validated)."""
    cycles = tuple(Cycle.from_nodes(g, seq) for seq in node_sequences)
    basis = CycleBasis(graph=g, cycles=cycles, kind="explicit")
    basis.validate()
    return basis


def _tree_path_nodes(parent: list[int], a: int, b: int) -> list[int]:
    """Node path a -> b through the tree (via lowest common ancestor)."""
    up_a = [a]
    v = a
    while v != -1:
        v = parent[v]
        if v != -1:
            up_a.append(v)
    depth = {v: k for k, v in enumerate(up_a)}
    up_b = [b]
    v = b
    while v not in depth:
        v = parent[v]
        up_b.append(v)
    lca = v
    return up_a[: depth[lca] + 1] + up_b[-2::-1]


def fundamental_cycle_basis(g: WeightedGraph) -> CycleBasis:
    """One cycle per non-tree edge: the tree path closed by that edge.

    Each cycle is oriented so its defining non-tree edge has coefficient -1
    (the node sequence runs with the tree path from the edge's first node to
    its second, closing against the edge orientation).  A tree's basis is
    empty.
    """
    parent, parent_edge, _ = g.tree
    in_tree = set(parent_edge[1:])
    cycles = []
    for e, (i, j) in enumerate(g.edges):
        if e in in_tree:
            continue
        path = _tree_path_nodes(parent, i, j)
        # The graph has no parallel edges, so a tree step a -> b runs along
        # the parent edge of whichever of a, b is the child.
        vec = np.zeros(g.m, dtype=np.int64)
        for a, b in zip(path, path[1:]):
            t = parent_edge[a] if parent[a] == b else parent_edge[b]
            vec[t] = 1 if g.edges[t][0] == a else -1
        vec[e] = -1  # closing j -> i against the edge's orientation
        cycles.append(Cycle(nodes=tuple(path), vector=vec))
    return CycleBasis(graph=g, cycles=tuple(cycles), kind="fundamental")


def minimum_cycle_basis(g: WeightedGraph) -> CycleBasis:
    """Minimum-length cycle basis via Horton's candidate set.

    Candidates are the cycles C(v, e) closing the BFS-tree paths from v to
    the endpoints x, y of a non-tree edge e.  C(v, e) is simple exactly
    when those paths meet only at v.  Candidates are ordered by (length,
    root, sorted edge indices) and the shortest are kept greedily under
    GF(2) independence.  Unweighted cycle length is the objective.  Each
    kept cycle runs from its smallest node towards that node's smaller
    neighbour, and its vector is +1 on an edge it leaves at the edge's
    first node and -1 on the others.

    The candidates come one length class L = 3, 4, ... at a time, and the
    greedy stops in the class where it holds k cycles:

    * C(v, e) has length d_v(x) + d_v(y) + 1, and |d_v(x) - d_v(y)| <= 1 as
      x and y are adjacent.  So classes 2h + 1 and 2h + 2 are met while
      scanning level h: both ends at depth h, or one at h and one at h + 1.
    * Every root's BFS is plain lists (nodes in reach order, their
      positions, up pointers as (parent position, edge), scan start), grown
      one level per round in adjacency order, so its tree is that of a full
      BFS.  A round scans level h of every root, then runs the greedy on
      classes 2h + 1 and 2h + 2.
    * Within a class, a repeated edge set keeps only its smallest root's
      copy: a later copy reduces to zero, so dropping it keeps every pick.
      Sorting a class by (root, sorted edges) gives exactly its block of
      the global (length, root, edges) order, so the greedy keeps the same
      k cycles in the same order as on the full candidate set.
    * Nodes outside the 2-core (the pendant trees) are stripped first, leaf
      by leaf.  No candidate passes through them, and no BFS path between
      two kept nodes does either, so the kept roots' trees and candidates
      are unchanged.
    * A kept cycle's nodes and edges are read off its two tree paths, and
      the signs of all k cycles go into one (k, m) int64 matrix; a tree's
      k = 0 gives the empty basis.
    """
    k = g.cycle_space_dim
    # Strip leaf by leaf: a node whose degree falls to 1 lies on no cycle.
    adjacency = g.adjacency
    degree = [len(adjacency[v]) for v in range(g.n)]
    leaves = [v for v in range(g.n) if degree[v] == 1]
    for v in leaves:
        for _, w in adjacency[v]:
            degree[w] -= 1
            if degree[w] == 1:
                leaves.append(w)
    if leaves:
        adjacency = {v: [(e, w) for e, w in adjacency[v] if degree[w] > 1] for v in range(g.n) if degree[v] > 1}
    searches = [[[v], {v: 0}, [(-1, -1)], 0] for v in adjacency]  # order, index, up, scan start
    picked: list[tuple[list, int, int, int]] = []  # (search, i, e, j) per kept cycle
    pivots: dict[int, int] = {}  # pivot edge -> row index into reduced
    reduced: list[int] = []  # GF(2) rows as bitmasks
    while searches and len(picked) < k:
        # Scan the deepest level h of every root.  Its links (i, e, j) are
        # the non-tree edges met for the first time, with j later on level
        # h (class 2h + 1) or on level h + 1 (class 2h + 2).
        classes: tuple[list, list] = ([], [])  # per class: (search, its links), in root order
        for search in searches:
            order, index, up, start = search
            end = len(order)
            same, deeper = [], []
            for i in range(start, end):
                for e, w in adjacency[order[i]]:
                    j = index.get(w)
                    if j is None:
                        index[w] = len(order)
                        order.append(w)
                        up.append((i, e))
                    elif j > i:
                        (same if j < end else deeper).append((i, e, j))
            search[3] = end
            for found, links in zip(classes, (same, deeper)):
                if links:
                    found.append((search, links))
        searches = [search for search in searches if search[3] < len(search[0])]
        for odd, found in zip((True, False), classes):
            first: dict[tuple[int, ...], tuple] = {}  # edge set -> its smallest root's copy
            for search, links in found:
                up = search[2]
                for link in links:
                    i, e, j = link
                    path = [e]
                    if not odd:  # j is one level below i
                        j, b = up[j]
                        path.append(b)
                    while i != j:
                        i, a = up[i]
                        j, b = up[j]
                        path += (a, b)
                    if i == 0:  # the two tree paths meet only at the root
                        key = tuple(sorted(path))
                        if key not in first:
                            first[key] = (search[0][0], key, search, *link)
            for _, key, search, i, e, j in sorted(first.values()):
                row = 0
                for edge in key:
                    row |= 1 << edge
                while row:
                    pivot = row.bit_length() - 1
                    if pivot not in pivots:
                        break
                    row ^= reduced[pivots[pivot]]
                if row:
                    pivots[row.bit_length() - 1] = len(reduced)
                    reduced.append(row)
                    picked.append((search, i, e, j))
                    if len(picked) == k:
                        break
            if len(picked) == k:
                break
    if len(picked) < k:
        raise RankError("Horton candidates did not span the cycle space")

    # Walk each kept cycle up from i to the root, down to j and across e:
    # node t is left along edge out[t].  Then start it at its smallest node
    # and turn it towards that node's smaller neighbour.
    walks, turns, rows, outs, tails = [], [], [], [], []
    for r, ((order, _, up, _), i, e, j) in enumerate(picked):
        nodes, out, down, down_out = [], [], [], []
        while i:
            nodes.append(order[i])
            i, a = up[i]
            out.append(a)
        while j:
            down.append(order[j])
            j, b = up[j]
            down_out.append(b)
        nodes.append(order[0])
        nodes += down[::-1]
        out += down_out[::-1]
        out.append(e)
        t = nodes.index(min(nodes))
        forward = nodes[(t + 1) % len(nodes)] < nodes[t - 1]
        walks.append(nodes[t:] + nodes[:t] if forward else nodes[t::-1] + nodes[:t:-1])
        turns.append(1 if forward else -1)
        rows += [r] * len(nodes)
        outs += out
        tails += nodes
    # The walk leaves edge out[t] at its first node exactly when node t is
    # that node, and a turned walk flips every sign.
    outs, tails, rows = np.array((outs, tails, rows), dtype=np.intp)
    vectors = np.zeros((k, g.m), dtype=np.int64)
    vectors[rows, outs] = np.where(g.ends[0][outs] == tails, 1, -1) * np.array(turns)[rows]
    cycles = tuple(Cycle(nodes=nodes, vector=vector) for nodes, vector in zip(walks, vectors))
    return CycleBasis(graph=g, cycles=cycles, kind="minimum")


def cycle_edge_pinv(basis: CycleBasis) -> np.ndarray:
    """Right pseudoinverse of the cycle-edge matrix (C C^+ = I)."""
    C = np.array([c.vector for c in basis.cycles], dtype=float)
    s = np.linalg.svd(C, compute_uv=False)
    if s.size == 0 or s[-1] <= RANK_RTOL * s[0]:
        raise RankError("cycle-edge matrix is rank deficient")
    return C.T @ np.linalg.inv(C @ C.T)


def integer_shift_solve(basis: CycleBasis, u: Sequence[int]) -> np.ndarray:
    """`integer_cycle_shift` on a fundamental basis, whose off-tree block is
    -I; other kinds raise BasisKindError."""
    if basis.kind != "fundamental":
        raise BasisKindError("integer shift solve needs a fundamental basis; use integer_cycle_shift")
    return integer_cycle_shift(basis, u)


def _winding_image(basis: CycleBasis, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T^{-1} u rounded, for each row u of a (B, k) int64 stack U and the
    basis's off-tree block T, as a (B, k) int64 stack, and the (B,) mask of
    the rows in the winding image: those whose T^{-1} u is integral to
    1e-9, so that C z = u has an integer solution.  The rows share one
    k x k solve.  A zero row is in the image, and a block of zero rows
    makes no solve."""
    W = np.zeros(U.shape)
    if U.any():
        try:
            W = np.linalg.solve(basis.off_tree[1].astype(float), U.T.astype(float)).T
        except np.linalg.LinAlgError as exc:
            raise RankError(f"off-tree block is singular: {exc}") from exc
    Z = np.rint(W)
    return Z.astype(np.int64), np.abs(W - Z).max(axis=1, initial=0.0) <= 1e-9


def integer_cycle_shift(basis: CycleBasis, u: Sequence[int]) -> np.ndarray:
    """Integer z with C_Sigma z = u, supported on the off-tree edges, for any
    basis kind: there z is T^{-1} u for the basis's off-tree block T, the
    one-row view of `_winding_image`.  If T^{-1} u is not integral no
    integer shift exists, meaning u is outside the winding image, and
    NonIntegerWindingError is raised."""
    u = _winding_ints(u, basis.size)
    w, image = _winding_image(basis, u[None, :])
    if not image[0]:
        raise NonIntegerWindingError(f"no integer shift for u={u.tolist()}: not in the winding image")
    z = np.zeros(basis.graph.m, dtype=np.int64)
    z[list(basis.off_tree[0])] = w[0]
    return z


@dataclass(frozen=True)
class CycleProjection:
    """Oblique projection onto Ker(B) parallel to Img(D A B^T)."""

    matrix: np.ndarray


def cycle_projection(g: WeightedGraph, D: Sequence[float] | np.ndarray) -> CycleProjection:
    """D-weighted cycle projection P_D = I - D A B^T (B D A B^T)^+ B."""
    d = np.asarray(D, dtype=float)
    if d.ndim == 2:
        d = np.diag(d)
    if d.shape != (g.m,):
        raise InputError("D must supply one positive weight per edge")
    if not np.all((d > 0.0) & (d < math.inf)):
        raise WeightError("D must be finite and strictly positive on the diagonal")
    B = g.incidence
    da = d * g.weight_vector
    lap = (B * da) @ B.T
    inv = deflated_pinv(lap)
    P = np.eye(g.m) - (da[:, None] * B.T) @ inv @ B
    return CycleProjection(matrix=P)
