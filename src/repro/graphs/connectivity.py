"""Vertex connectivity (κ) and local connectivity κ(s, t).

The whole paper revolves around vertex connectivity: a graph is
t-Byzantine partitionable iff κ(G) <= t (Corollary 1), and NECTAR's
decision phase computes κ of the discovered graph (Algorithm 1 l. 17).

We implement the classical algorithm used for exact node connectivity:

* κ(s, t) for non-adjacent s, t is the max flow in the vertex-split
  digraph (Menger's theorem [20]);
* κ(G) = min over a quadratic-free pair family built from a minimum
  degree vertex v: pairs (v, w) for w non-adjacent to v, plus pairs of
  non-adjacent neighbors of v.  Every minimum cut either excludes v
  (first family) or contains v, in which case v has neighbors in two
  components of G - C (second family).

A ``cutoff`` argument allows early exit: callers that only need to
compare κ against a threshold (NECTAR compares against t and the
sensitivity bound 2t) can cap every max-flow at the threshold.

Three exact savings keep this pure-Python path fast: a pair with at
least as many common neighbours as the running minimum skips its
max-flow (common neighbours are disjoint paths), the pair walk stops
once the running minimum reaches 1 (a connected graph has κ >= 1), and
every pair of one call reuses a single split network instead of
rebuilding its arcs.
"""

from __future__ import annotations

from typing import Iterator

from repro.graphs.graph import Graph
from repro.graphs.maxflow import INFINITY, FlowNetwork
from repro.types import NodeId


class _SplitNetwork:
    """The vertex-split digraph of a graph, reusable for any (s, t) pair.

    Vertex v becomes v_in = 2v and v_out = 2v + 1 with an internal arc
    of capacity 1.  Each undirected edge (u, v) becomes u_out -> v_in
    and v_out -> u_in with infinite capacity.  The arcs are built once;
    each query restores the pristine capacities and lifts the two
    terminals' internal arcs to infinity (terminals may not be counted
    in a separator).
    """

    def __init__(self, graph: Graph) -> None:
        network = FlowNetwork(2 * graph.n)
        for vertex in graph.nodes():
            network.add_edge(2 * vertex, 2 * vertex + 1, 1)
        for u, v in graph.edges():
            network.add_edge(2 * u + 1, 2 * v, INFINITY)
            network.add_edge(2 * v + 1, 2 * u, INFINITY)
        self._n = graph.n
        self._network = network
        self._template = network.capacity_template()

    def max_flow(self, source: NodeId, sink: NodeId, cutoff: int | None = None) -> int:
        """κ(source, sink) for non-adjacent terminals, truncated at ``cutoff``."""
        network = self._network
        network.reset_capacities(self._template)
        # The internal arc of vertex v is the v-th add_edge call, whose
        # forward arc index is 2v.
        network.set_edge_capacity(2 * source, INFINITY)
        network.set_edge_capacity(2 * sink, INFINITY)
        return network.max_flow(2 * source + 1, 2 * sink, cutoff=cutoff)

    def cut(self, source: NodeId, sink: NodeId) -> set[NodeId]:
        """The minimum vertex cut on the source side of a maximum flow.

        It is read off the saturated internal arcs on the residual
        boundary, so it does not depend on which maximum flow was found.
        """
        self.max_flow(source, sink)
        reachable = self._network.residual_reachable(2 * source + 1)
        return {
            vertex
            for vertex in range(self._n)
            if vertex not in (source, sink)
            and 2 * vertex in reachable
            and 2 * vertex + 1 not in reachable
        }


def _pivot_pairs(graph: Graph) -> Iterator[tuple[NodeId, NodeId, int]]:
    """The pair family whose smallest κ(s, t) is κ(G), in a fixed order.

    Yields ``(s, t, shared)`` where ``shared`` counts the common
    neighbours of s and t.  Each common neighbour is an internally
    disjoint path, so κ(s, t) >= ``shared`` and a pair whose count
    already reaches the running minimum can skip its max-flow exactly.
    """
    neighbors = graph.neighbors
    pivot = min(graph.nodes(), key=graph.degree)
    pivot_neighbors = neighbors(pivot)
    # Family 1: pivot against every non-neighbor.
    for other in graph.nodes():
        if other != pivot and other not in pivot_neighbors:
            yield pivot, other, len(pivot_neighbors & neighbors(other))
    # Family 2: non-adjacent pairs of pivot's neighbors (covers minimum
    # cuts that contain the pivot itself).
    ordered = sorted(pivot_neighbors)
    for i, x in enumerate(ordered):
        x_neighbors = neighbors(x)
        for y in ordered[i + 1:]:
            if y not in x_neighbors:
                yield x, y, len(x_neighbors & neighbors(y))


def local_connectivity(
    graph: Graph, source: NodeId, sink: NodeId, cutoff: int | None = None
) -> int:
    """κ(source, sink): the number of vertex-independent paths.

    For adjacent vertices no vertex set separates them; following the
    usual convention this returns ``INFINITY`` (truncated at ``cutoff``
    when one is given).

    Raises:
        ValueError: if ``source == sink``.
    """
    if source == sink:
        raise ValueError("local connectivity needs two distinct vertices")
    if graph.has_edge(source, sink):
        return INFINITY if cutoff is None else cutoff
    return _SplitNetwork(graph).max_flow(source, sink, cutoff=cutoff)


def vertex_connectivity(graph: Graph, cutoff: int | None = None) -> int:
    """Global vertex connectivity κ(G).

    Args:
        graph: the graph to analyse.
        cutoff: when given, the computation may stop early and return
            ``min(κ(G), cutoff)``; useful when the caller only needs to
            know whether κ reaches a threshold.

    Returns:
        κ(G) exactly, or its truncation at ``cutoff``.  A disconnected
        graph (including any graph with an isolated vertex) has κ = 0;
        the complete graph K_n has κ = n - 1 by convention.
    """
    n = graph.n
    if n == 1:
        return 0 if cutoff is None else min(0, cutoff)
    if not graph.is_connected():
        return 0
    if cutoff is not None and cutoff <= 1:
        # Connected ⇒ κ >= 1, so the truncation is already decided
        # without any max-flow work (the cost sweeps run cutoff=1).
        return max(0, cutoff)
    if graph.edge_count == n * (n - 1) // 2:
        kappa = n - 1
        return kappa if cutoff is None else min(kappa, cutoff)

    # The minimum degree bounds κ from above, the user cutoff may bound
    # it further.  Connected with n >= 2, so every bound below is >= 1.
    best = graph.min_degree()
    if cutoff is not None:
        best = min(best, cutoff)
    network = _SplitNetwork(graph)
    for s, t, shared in _pivot_pairs(graph):
        if best == 1:
            break  # connected, so κ >= 1: no pair can go lower
        if shared < best:
            best = network.max_flow(s, t, cutoff=best)
    return best


def minimum_st_vertex_cut(graph: Graph, source: NodeId, sink: NodeId) -> set[NodeId]:
    """A minimum vertex set separating two non-adjacent vertices.

    By Menger's theorem its size equals κ(source, sink).

    Raises:
        ValueError: for adjacent (or identical) vertices, which no
            vertex set separates.
    """
    if source == sink or graph.has_edge(source, sink):
        raise ValueError("a vertex cut needs two distinct non-adjacent vertices")
    return _SplitNetwork(graph).cut(source, sink)


def minimum_vertex_cut(graph: Graph) -> set[NodeId]:
    """A minimum vertex cut of a connected, non-complete graph.

    Useful to place Byzantine nodes in the worst position the paper
    reasons about: |cut| = κ(G) nodes whose removal partitions the
    correct remainder.  The cut returned is the one of the first pair
    in :func:`_pivot_pairs` order whose κ(s, t) equals κ(G).

    Raises:
        ValueError: for disconnected or complete graphs (no vertex cut
            exists in either case).
    """
    n = graph.n
    if not graph.is_connected():
        raise ValueError("a disconnected graph has no minimum vertex cut")
    if graph.edge_count == n * (n - 1) // 2:
        raise ValueError("a complete graph has no vertex cut")
    network = _SplitNetwork(graph)
    best_cut: set[NodeId] = set()
    best = INFINITY
    for s, t, shared in _pivot_pairs(graph):
        if best == 1:
            break  # connected, so no cut is smaller than one vertex
        if shared < best:
            cut = network.cut(s, t)
            if len(cut) < best:
                best_cut, best = cut, len(cut)
    return best_cut


def is_vertex_cut(graph: Graph, nodes: frozenset[NodeId] | set[NodeId]) -> bool:
    """Whether removing ``nodes`` disconnects the remaining vertices.

    This is the Safety condition of Def. 3 ("if V_b is a vertex cut of
    G ...").  Removing everything (or all but one vertex) is not a cut.
    """
    remaining = [v for v in graph.nodes() if v not in nodes]
    if len(remaining) <= 1:
        return False
    stripped = graph.without_nodes(nodes)
    reachable = stripped.bfs_reachable(remaining[0], forbidden=frozenset(nodes))
    return len(reachable) != len(remaining)


def is_byzantine_partitionable(graph: Graph, t: int) -> bool:
    """Corollary 1: G is t-Byzantine partitionable iff κ(G) <= t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return not graph.is_connected()
    return vertex_connectivity(graph, cutoff=t + 1) <= t
