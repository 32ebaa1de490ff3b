"""Tests for the max-flow engine (bounded shortest augmenting paths)."""

import random

import networkx as nx
import pytest

from repro.graphs.maxflow import INFINITY, FlowNetwork


class TestBasics:
    def test_single_edge(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 5)
        assert network.max_flow(0, 1) == 5

    def test_series_bottleneck(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 5)
        network.add_edge(1, 2, 3)
        assert network.max_flow(0, 2) == 3

    def test_parallel_paths_add_up(self):
        network = FlowNetwork(4)
        network.add_edge(0, 1, 2)
        network.add_edge(1, 3, 2)
        network.add_edge(0, 2, 3)
        network.add_edge(2, 3, 3)
        assert network.max_flow(0, 3) == 5

    def test_no_path_gives_zero(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, 4)
        assert network.max_flow(0, 2) == 0

    def test_classic_cross_network(self):
        """The textbook example where a cross edge enables reflow."""
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1)
        network.add_edge(0, 2, 1)
        network.add_edge(1, 2, 1)
        network.add_edge(1, 3, 1)
        network.add_edge(2, 3, 1)
        assert network.max_flow(0, 3) == 2

    def test_cutoff_truncates(self):
        network = FlowNetwork(2)
        network.add_edge(0, 1, 100)
        assert network.max_flow(0, 1, cutoff=7) == 7

    def test_same_source_sink_rejected(self):
        network = FlowNetwork(2)
        with pytest.raises(ValueError):
            network.max_flow(1, 1)

    def test_negative_capacity_rejected(self):
        network = FlowNetwork(2)
        with pytest.raises(ValueError):
            network.add_edge(0, 1, -1)

    def test_vertex_out_of_range_rejected(self):
        network = FlowNetwork(2)
        with pytest.raises(ValueError):
            network.add_edge(0, 2, 1)


class TestResidualReachability:
    def test_min_cut_boundary(self):
        # 0 -> 1 -> 2 with bottleneck on (1, 2).
        network = FlowNetwork(3)
        network.add_edge(0, 1, 5)
        network.add_edge(1, 2, 1)
        assert network.max_flow(0, 2) == 1
        reachable = network.residual_reachable(0)
        assert 0 in reachable
        assert 1 in reachable  # (0,1) not saturated
        assert 2 not in reachable  # behind the saturated bottleneck

    def test_infinity_edges_never_cut(self):
        network = FlowNetwork(3)
        network.add_edge(0, 1, INFINITY)
        network.add_edge(1, 2, 2)
        assert network.max_flow(0, 2) == 2
        assert network.residual_reachable(0) == {0, 1}


class TestBoundedAugmentation:
    """The cutoff- and capacity-bounded engine against an independent
    oracle: networkx's maximum flow on the same random networks, with
    the INFINITY arcs left uncapacitated."""

    def test_matches_networkx_on_random_networks(self):
        rng = random.Random(42)
        for trial in range(200):
            vertices = rng.randint(2, 8)
            network = FlowNetwork(vertices)
            oracle = nx.DiGraph()
            oracle.add_nodes_from(range(vertices))
            for _ in range(rng.randint(vertices, 3 * vertices)):
                u, v = rng.sample(range(vertices), 2)
                capacity = rng.choice((1, 1, 1, 2, INFINITY))
                network.add_edge(u, v, capacity)
                # Parallel arcs add up; one uncapacitated arc makes the
                # pair uncapacitated.
                if not oracle.has_edge(u, v):
                    oracle.add_edge(u, v, capacity=0)
                arc = oracle[u][v]
                if capacity == INFINITY or "capacity" not in arc:
                    arc.pop("capacity", None)
                else:
                    arc["capacity"] += capacity
            source, sink = rng.sample(range(vertices), 2)
            cutoff = rng.choice((0, 1, 2, 3, 4, 5, None))
            ours = network.max_flow(source, sink, cutoff=cutoff)
            context = (
                f"trial {trial}: cutoff={cutoff} ours={ours} "
                f"arcs={sorted(oracle.edges(data=True))} s={source} t={sink}"
            )
            try:
                exact = nx.maximum_flow_value(oracle, source, sink)
            except nx.NetworkXUnbounded:
                # An all-INFINITY path: any cutoff is reached.
                if cutoff is None:
                    assert ours >= INFINITY, context
                else:
                    assert ours == cutoff, context
                continue
            expected = exact if cutoff is None else min(exact, cutoff)
            assert ours == expected, context

    def test_degree_bound_zero_returns_zero(self):
        network = FlowNetwork(3)
        network.add_edge(1, 2, 1)
        assert network.max_flow(0, 2, cutoff=2) == 0  # isolated source

    def test_cutoff_two_on_parallel_unit_paths(self):
        network = FlowNetwork(6)
        for middle in (1, 2, 3, 4):
            network.add_edge(0, middle, 1)
            network.add_edge(middle, 5, 1)
        assert network.max_flow(0, 5, cutoff=2) == 2

    def test_scratch_arrays_reused_across_calls(self):
        """A second max_flow call on the same (now saturated) network
        must see clean scratch state and report no extra flow."""
        network = FlowNetwork(4)
        network.add_edge(0, 1, 1)
        network.add_edge(1, 3, 1)
        network.add_edge(0, 2, 1)
        network.add_edge(2, 3, 1)
        assert network.max_flow(0, 3) == 2
        assert network.max_flow(0, 3) == 0
        assert network.max_flow(0, 3, cutoff=2) == 0
