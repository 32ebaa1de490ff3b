"""Tests for NECTAR's decision phase (Algorithm 1, ll. 16-23)."""

import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.decision as decision_module
import repro.graphs.connectivity as connectivity_module
from repro.core.adjacency import DiscoveredGraph
from repro.core.decision import clear_connectivity_cache, decide
from repro.crypto.keys import build_keystore
from repro.crypto.proofs import make_proof
from repro.crypto.signer import HmacScheme
from repro.experiments.runner import compute_ground_truth
from repro.experiments.spec import TopologySpec, TrialSpec, execute_trial
from repro.graphs.graph import Graph
from repro.types import Decision


@pytest.fixture
def discovered_builder(scheme, keystore):
    def build(n, edges):
        discovered = DiscoveredGraph(n)
        for u, v in edges:
            discovered.add(
                make_proof(scheme, keystore.key_pair_of(u), keystore.key_pair_of(v))
            )
        return discovered

    return build


def ring_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


class TestDecide:
    def test_full_view_high_connectivity(self, discovered_builder):
        # 5-node ring plus chords: κ = 2 > t = 1.
        edges = ring_edges(5) + [(0, 2), (1, 3)]
        verdict = decide(discovered_builder(5, edges), node_id=0, t=1)
        assert verdict.decision is Decision.NOT_PARTITIONABLE
        assert not verdict.confirmed
        assert verdict.reachable == 5
        assert verdict.connectivity >= 2

    def test_low_connectivity_is_partitionable(self, discovered_builder):
        # A path: κ = 1 <= t = 1.
        edges = [(i, i + 1) for i in range(4)]
        verdict = decide(discovered_builder(5, edges), node_id=0, t=1)
        assert verdict.decision is Decision.PARTITIONABLE
        assert not verdict.confirmed  # everyone reachable
        assert verdict.connectivity == 1

    def test_unreachable_within_budget_is_unconfirmed(self, discovered_builder):
        # Node 4 never discovered: r != n, but the single missing node
        # fits inside t = 1 — it may simply be a silent Byzantine node,
        # so Validity forbids a confirmed claim.
        edges = ring_edges(4)
        verdict = decide(discovered_builder(5, edges), node_id=0, t=1)
        assert verdict.decision is Decision.PARTITIONABLE
        assert not verdict.confirmed
        assert verdict.reachable == 4
        assert verdict.connectivity is None  # short-circuited

    def test_unreachable_beyond_budget_confirms_partition(self, discovered_builder):
        # Nodes 4 and 5 never discovered: n - r = 2 > t = 1, so at
        # least one missing node is correct and the cut is genuine.
        edges = ring_edges(4)
        verdict = decide(discovered_builder(6, edges), node_id=0, t=1)
        assert verdict.decision is Decision.PARTITIONABLE
        assert verdict.confirmed
        assert verdict.reachable == 4
        assert verdict.connectivity is None  # short-circuited

    def test_t_zero_connected_graph(self, discovered_builder):
        verdict = decide(discovered_builder(4, ring_edges(4)), node_id=1, t=0)
        assert verdict.decision is Decision.NOT_PARTITIONABLE

    def test_cutoff_preserves_decision(self, discovered_builder):
        edges = ring_edges(6) + [(0, 3), (1, 4), (2, 5)]
        exact = decide(discovered_builder(6, edges), node_id=0, t=1)
        clear_connectivity_cache()
        capped = decide(
            discovered_builder(6, edges), node_id=0, t=1, connectivity_cutoff=2
        )
        assert capped.decision is exact.decision
        assert capped.connectivity == 2  # truncated report

    def test_cutoff_at_or_below_t_rejected(self, discovered_builder):
        discovered = discovered_builder(4, ring_edges(4))
        with pytest.raises(ValueError):
            decide(discovered, node_id=0, t=2, connectivity_cutoff=2)

    def test_same_view_same_verdict_across_nodes(self, discovered_builder):
        """Agreement follows from identical views (Lemma 2's conclusion)."""
        edges = ring_edges(6)
        verdicts = [
            decide(discovered_builder(6, edges), node_id=v, t=1) for v in range(6)
        ]
        assert len({v.decision for v in verdicts}) == 1

    def test_connectivity_cache_is_shared(self, discovered_builder, monkeypatch):
        """The κ computation runs once for identical edge sets."""
        calls = []
        import repro.core.decision as decision_module

        original = decision_module.vertex_connectivity

        def counting(graph, cutoff=None):
            calls.append(1)
            return original(graph, cutoff=cutoff)

        monkeypatch.setattr(decision_module, "vertex_connectivity", counting)
        clear_connectivity_cache()
        edges = ring_edges(5)
        for node in range(5):
            decide(discovered_builder(5, edges), node_id=node, t=1)
        assert len(calls) == 1


# ----------------------------------------------------------------------
# The shared κ memo: one stored fact answers every cutoff it covers
# ----------------------------------------------------------------------
_SCHEME = HmacScheme()
_KEYS = build_keystore(_SCHEME, 12, seed=7)


@st.composite
def memo_sessions(draw):
    """A random graph (n <= 12) and a mixed sequence of κ queries.

    Each query is ``(kind, t, cutoff)``: ``kind`` picks decide() or
    compute_ground_truth(), and ``t`` sits below ``cutoff`` as both
    callers require.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    queries = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(("decide", "truth")))
        cutoff = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
        upper = 7 if cutoff is None else cutoff - 1
        queries.append((kind, draw(st.integers(min_value=0, max_value=upper)), cutoff))
    return Graph(n, edges), queries


@settings(max_examples=80, deadline=None)
@given(memo_sessions())
def test_memo_answers_every_cutoff_from_the_strongest_fact(session):
    """Every answer is min(κ, cutoff), and κ is computed only when the
    stored fact (κ exactly, or κ >= c) cannot answer the query."""
    graph, queries = session
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    kappa = nx.node_connectivity(nx_graph)
    discovered = DiscoveredGraph(graph.n)
    for u, v in graph.edges():
        discovered.add(make_proof(_SCHEME, _KEYS.key_pair_of(u), _KEYS.key_pair_of(v)))

    calls = []
    original = decision_module.vertex_connectivity

    def counting(graph, cutoff=None):
        calls.append(cutoff)
        return original(graph, cutoff=cutoff)

    decision_module.vertex_connectivity = counting
    clear_connectivity_cache()
    try:
        fact = None  # what the memo should know: (value, exact)
        for kind, t, cutoff in queries:
            before = len(calls)
            if kind == "decide":
                verdict = decide(discovered, node_id=0, t=t, connectivity_cutoff=cutoff)
                if not graph.is_connected():
                    # Node 0 misses someone: no κ query at all.
                    assert verdict.connectivity is None
                    assert len(calls) == before
                    continue
                answer = verdict.connectivity
            else:
                truth = compute_ground_truth(
                    graph, t, frozenset(), connectivity_cutoff=cutoff
                )
                answer = truth.connectivity
            assert answer == (kappa if cutoff is None else min(kappa, cutoff))
            answerable = fact is not None and (
                fact[1] or (cutoff is not None and cutoff <= fact[0])
            )
            assert len(calls) - before == (0 if answerable else 1)
            if not answerable:
                fact = (answer, cutoff is None or answer < cutoff)
    finally:
        decision_module.vertex_connectivity = original
        clear_connectivity_cache()


def test_resilience_cell_computes_kappa_once(monkeypatch):
    """One two-faced NECTAR connectivity-resilience cell asks for κ of
    one graph three times: correct nodes decide at cutoff t + 1, the
    two-faced nodes decide exactly, the ground truth asks at 2t + 1.
    With one memo for every cutoff the first, exact-below-cutoff answer
    serves all three (a memo keyed by cutoff computes κ three times)."""
    calls = []
    original = connectivity_module.vertex_connectivity

    def counting(graph, cutoff=None):
        calls.append(cutoff)
        return original(graph, cutoff=cutoff)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "vertex_connectivity", None) is original:
            monkeypatch.setattr(module, "vertex_connectivity", counting)
    spec = TrialSpec(
        topology=TopologySpec(kind="split", family="k-diamond", n=14, k=4, t=2),
        protocol="nectar",
        adversary="two-faced",
        measure="success-rate",
    )
    assert execute_trial(spec) == 1.0
    assert calls == [3]
