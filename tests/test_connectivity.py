"""Tests for vertex connectivity — including property tests vs networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.connectivity import (
    is_byzantine_partitionable,
    is_vertex_cut,
    local_connectivity,
    minimum_st_vertex_cut,
    minimum_vertex_cut,
    vertex_connectivity,
)
from repro.graphs.generators.classic import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
    two_cliques_bridge,
)
from repro.graphs.generators.drone import drone_graph
from repro.graphs.generators.logharary import k_diamond
from repro.graphs.generators.regular import harary_graph
from repro.graphs.generators.wheels import generalized_wheel
from repro.graphs.graph import Graph
from repro.graphs.maxflow import INFINITY, FlowNetwork


def to_networkx(graph: Graph) -> nx.Graph:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


class TestKnownValues:
    def test_path(self):
        assert vertex_connectivity(path_graph(6)) == 1

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(7)) == 2

    def test_star(self):
        assert vertex_connectivity(star_graph(8)) == 1

    def test_complete(self):
        assert vertex_connectivity(complete_graph(6)) == 5

    def test_grid(self):
        assert vertex_connectivity(grid_graph(3, 4)) == 2

    def test_two_cliques_bridges(self):
        for bridges in (1, 2, 3):
            graph = two_cliques_bridge(5, bridges=bridges)
            assert vertex_connectivity(graph) == bridges

    def test_disconnected_is_zero(self):
        assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_isolated_vertex_is_zero(self):
        assert vertex_connectivity(Graph(3, [(0, 1)])) == 0

    def test_single_node(self):
        assert vertex_connectivity(Graph(1)) == 0

    def test_two_connected_nodes(self):
        assert vertex_connectivity(Graph(2, [(0, 1)])) == 1

    def test_cutoff_truncates(self):
        assert vertex_connectivity(complete_graph(8), cutoff=3) == 3

    def test_cutoff_above_kappa_is_exact(self):
        assert vertex_connectivity(cycle_graph(6), cutoff=5) == 2


class TestLocalConnectivity:
    def test_adjacent_is_infinite(self):
        graph = cycle_graph(5)
        assert local_connectivity(graph, 0, 1) == INFINITY

    def test_adjacent_with_cutoff(self):
        graph = cycle_graph(5)
        assert local_connectivity(graph, 0, 1, cutoff=3) == 3

    def test_cycle_opposite(self):
        graph = cycle_graph(6)
        assert local_connectivity(graph, 0, 3) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            local_connectivity(cycle_graph(5), 2, 2)

    def test_matches_menger_disjoint_paths(self):
        """κ(s, t) on a graph with exactly 3 vertex-disjoint paths."""
        # s=0, t=7, three internally disjoint 0-x-y-7 paths.
        edges = [(0, 1), (1, 2), (2, 7), (0, 3), (3, 4), (4, 7), (0, 5), (5, 6), (6, 7)]
        graph = Graph(8, edges)
        assert local_connectivity(graph, 0, 7) == 3


class TestMinimumCuts:
    def test_st_cut_on_bridge_graph(self):
        graph = two_cliques_bridge(4, bridges=2)
        cut = minimum_st_vertex_cut(graph, 3, 7)  # non-bridge endpoints
        assert len(cut) == 2
        assert is_vertex_cut(graph, cut)

    def test_st_cut_rejects_adjacent(self):
        with pytest.raises(ValueError):
            minimum_st_vertex_cut(cycle_graph(5), 0, 1)

    def test_global_cut_matches_kappa(self):
        for graph in (cycle_graph(8), grid_graph(3, 3), two_cliques_bridge(4, 2)):
            cut = minimum_vertex_cut(graph)
            assert len(cut) == vertex_connectivity(graph)
            assert is_vertex_cut(graph, cut)

    @pytest.mark.parametrize(
        ("graph", "cut"),
        [
            (k_diamond(4, 14), [1, 6, 8, 13]),
            (k_diamond(2, 12), [1, 11]),
            (generalized_wheel(12, 5), [0, 1, 2, 4, 11]),
            (drone_graph(16, 1.5, 1.2, seed=3), [0, 1, 7]),
            (drone_graph(20, 2.0, 1.2, seed=0), [7, 8, 17]),
            (harary_graph(4, 24), [1, 2, 22, 23]),
        ],
        ids=["k-diamond-4-14", "k-diamond-2-12", "wheel-12-5", "drone-16",
             "drone-20", "harary-4-24"],
    )
    def test_global_cut_choice_is_pinned(self, graph, cut):
        """Adaptive placement puts Byzantine nodes on exactly this set,
        so which minimum cut is returned is pinned, not just its size."""
        assert sorted(minimum_vertex_cut(graph)) == cut

    def test_global_cut_rejects_complete(self):
        with pytest.raises(ValueError):
            minimum_vertex_cut(complete_graph(4))

    def test_global_cut_rejects_disconnected(self):
        with pytest.raises(ValueError):
            minimum_vertex_cut(Graph(4, [(0, 1), (2, 3)]))


def _two_cycles_sharing_zero() -> Graph:
    """Two 8-cycles glued at vertex 0 (n = 15): κ = 1, cut {0}."""
    edges = []
    for cycle in ([0, *range(1, 8)], [0, *range(8, 15)]):
        edges += [(cycle[i], cycle[(i + 1) % 8]) for i in range(8)]
    return Graph(15, edges)


@pytest.fixture
def max_flow_calls(monkeypatch):
    """A live count of FlowNetwork.max_flow calls."""
    calls = [0]
    plain_max_flow = FlowNetwork.max_flow

    def counting_max_flow(self, *args, **kwargs):
        calls[0] += 1
        return plain_max_flow(self, *args, **kwargs)

    monkeypatch.setattr(FlowNetwork, "max_flow", counting_max_flow)
    return calls


class TestWorkCounter:
    def test_pruning_pins_the_max_flow_count(self, monkeypatch):
        """κ over a fixed request set runs exactly 328 max-flows; without
        the common-neighbour skip it would run 360.  A count, unlike a
        timing, has no noise, so any weakened pruning fails here."""
        calls = 0
        plain_max_flow = FlowNetwork.max_flow

        def counting_max_flow(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return plain_max_flow(self, *args, **kwargs)

        monkeypatch.setattr(FlowNetwork, "max_flow", counting_max_flow)
        values = [
            vertex_connectivity(harary_graph(k, n), cutoff=cutoff)
            for k, n in ((4, 24), (6, 40), (6, 60))
            for cutoff in (2, 3, 5)
        ]
        assert values == [2, 3, 4, 2, 3, 5, 2, 3, 5]
        assert calls == 328

    @pytest.mark.parametrize(
        "graph, flows",
        [(_two_cycles_sharing_zero(), 6), (path_graph(8), 0)],
        ids=["two-8-cycles", "path-8"],
    )
    def test_kappa_stops_at_one(self, graph, flows, max_flow_calls):
        """Once the running minimum is 1 no pair can lower it (the graph
        is connected): the pair walk stops.  Walking every pair would
        run 11 and 5 max-flows here."""
        assert vertex_connectivity(graph) == 1
        assert max_flow_calls[0] == flows

    @pytest.mark.parametrize(
        "graph, cut, full_walk",
        [(_two_cycles_sharing_zero(), [0], 11), (path_graph(8), [1], 6)],
        ids=["two-8-cycles", "path-8"],
    )
    def test_minimum_cut_stops_at_one(self, graph, cut, full_walk, max_flow_calls):
        """The same stop in minimum_vertex_cut: the first one-vertex cut
        is kept (later cuts replace it only when strictly smaller), so
        the returned set is the full walk's, for fewer max-flows."""
        assert sorted(minimum_vertex_cut(graph)) == cut
        assert max_flow_calls[0] < full_walk


class TestIsVertexCut:
    def test_star_center(self):
        assert is_vertex_cut(star_graph(6), {0})

    def test_star_leaf_is_not(self):
        assert not is_vertex_cut(star_graph(6), {3})

    def test_removing_almost_everything_is_not_a_cut(self):
        graph = cycle_graph(4)
        assert not is_vertex_cut(graph, {0, 1, 2})


class TestByzantinePartitionable:
    def test_corollary_on_star(self):
        # Fig. 1b: the star is 1-Byzantine partitionable.
        assert is_byzantine_partitionable(star_graph(8), 1)

    def test_corollary_on_two_connected(self):
        # Fig. 1a-style: a 2-connected graph is not 1-Byzantine partitionable.
        assert not is_byzantine_partitionable(cycle_graph(8), 1)

    def test_t_zero_means_actually_partitioned(self):
        assert is_byzantine_partitionable(Graph(4, [(0, 1), (2, 3)]), 0)
        assert not is_byzantine_partitionable(cycle_graph(4), 0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            is_byzantine_partitionable(cycle_graph(4), -1)


# ----------------------------------------------------------------------
# Property tests against networkx
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    return Graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(random_graphs(max_n=16), st.one_of(st.none(), st.integers(1, 8)))
def test_vertex_connectivity_matches_networkx(graph, cutoff):
    theirs = nx.node_connectivity(to_networkx(graph))
    if cutoff is not None:
        theirs = min(theirs, cutoff)
    assert vertex_connectivity(graph, cutoff=cutoff) == theirs


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_kappa_bounded_by_min_degree(graph):
    assert vertex_connectivity(graph) <= max(graph.min_degree(), 0)


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.integers(min_value=0, max_value=12))
def test_cutoff_is_truncation(graph, cutoff):
    exact = vertex_connectivity(graph)
    truncated = vertex_connectivity(graph, cutoff=cutoff)
    assert truncated == min(exact, cutoff)


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_minimum_cut_is_a_cut_of_kappa_size(graph):
    kappa = vertex_connectivity(graph)
    complete = graph.edge_count == graph.n * (graph.n - 1) // 2
    if not graph.is_connected() or complete:
        return
    cut = minimum_vertex_cut(graph)
    assert len(cut) == kappa == nx.node_connectivity(to_networkx(graph))
    assert is_vertex_cut(graph, cut)
