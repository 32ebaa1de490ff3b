"""Property tests over the topology generators' contracts."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.generators.drone import drone_deployment
from repro.graphs.generators.logharary import k_diamond, k_pasted_tree
from repro.graphs.generators.regular import harary_graph, random_regular_graph


@st.composite
def harary_parameters(draw):
    n = draw(st.integers(min_value=4, max_value=18))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    return k, n


@settings(max_examples=40, deadline=None)
@given(harary_parameters())
def test_harary_graphs_are_exactly_k_connected(params):
    """H(k, n) achieves κ = k for every valid parameter pair."""
    k, n = params
    graph = harary_graph(k, n)
    assert vertex_connectivity(graph) == k


@settings(max_examples=30, deadline=None)
@given(harary_parameters())
def test_harary_edge_count_is_minimum(params):
    """Minimum edges for k-connectivity: ⌈kn/2⌉ for k >= 2 (Harary's
    theorem); for k = 1 connectivity itself demands a tree's n - 1."""
    k, n = params
    graph = harary_graph(k, n)
    expected = n - 1 if k == 1 else (k * n + 1) // 2
    assert graph.edge_count == expected


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=6, max_value=20),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=50),
)
def test_random_regular_graphs_are_regular_and_connected(n, k, seed):
    if (n * k) % 2 != 0 or k >= n:
        return
    graph = random_regular_graph(n, k, seed=seed)
    assert all(graph.degree(v) == k for v in graph.nodes())
    assert graph.is_connected()


def _to_networkx(graph) -> nx.Graph:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


@pytest.mark.parametrize(
    "n, k",
    # Sparse cells of the sweeps, then dense ones (k > (n - 1) / 2),
    # which are sampled through their complement; (40, 34) is the
    # paper-scale fig3-random cell the pairing model alone got stuck on.
    [(12, 3), (20, 6), (60, 10), (21, 12), (10, 9), (20, 18), (40, 34)],
)
def test_random_regular_graphs_match_networkx(n, k):
    """k-regular, simple and connected, checked by networkx."""
    digests = set()
    for seed in range(5):
        graph = random_regular_graph(n, k, seed=seed)
        nx_graph = _to_networkx(graph)
        assert nx_graph.number_of_nodes() == n
        assert all(degree == k for _, degree in nx_graph.degree())
        assert nx.number_of_selfloops(nx_graph) == 0
        # k-regular with n*k/2 distinct edges: no edge was doubled.
        assert nx_graph.number_of_edges() == n * k // 2
        assert nx.is_connected(nx_graph)
        digests.add(graph.digest())
    if k < n - 1:
        assert len(digests) > 1  # the seed matters


def test_dense_random_regular_graph_can_require_connectivity():
    graph = random_regular_graph(12, 8, seed=3, require_connectivity=True)
    assert nx.node_connectivity(_to_networkx(graph)) == 8


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([2, 4, 6]),
    st.integers(min_value=12, max_value=40),
)
def test_log_harary_families_hold_their_contract(k, n):
    """κ = k and minimum edges, validated against networkx too."""
    for builder in (k_pasted_tree, k_diamond):
        graph = builder(k, n)
        assert graph.edge_count == k * n // 2
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(graph.nodes())
        nx_graph.add_edges_from(graph.edges())
        assert nx.node_connectivity(nx_graph) == k


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=24),
    st.floats(min_value=0.0, max_value=8.0),
    st.floats(min_value=0.3, max_value=3.0),
    st.integers(min_value=0, max_value=100),
)
def test_drone_deployments_respect_geometry(n, d, radius, seed):
    deployment = drone_deployment(n, d, radius, seed=seed)
    graph = deployment.graph
    # Edges exactly match the proximity predicate.
    import math

    for u in range(n):
        for v in range(u + 1, n):
            ux, uy = deployment.positions[u]
            vx, vy = deployment.positions[v]
            close = math.hypot(ux - vx, uy - vy) < radius
            assert graph.has_edge(u, v) == close
    # Far-apart scatters are never cross-connected.
    if d - 2.0 >= radius:
        for u in deployment.left_cluster:
            for v in deployment.right_cluster:
                assert not graph.has_edge(u, v)
