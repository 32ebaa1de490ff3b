"""Closed-form trial execution on Python-int bitsets (DESIGN.md §15).

On the paper's own system model — reliable synchronous channels that
deliver everything — the lock-step execution of the three protocol
families is a *deterministic function of the topology and the
adversary's silence pattern*.  The engine here replays that function
round by round on Python-int bitsets instead of envelopes: every
per-round send count follows from which items each node learned in the
previous round, and every envelope size is profile arithmetic.  It
then materialises the per-node protocol end-state (discovered graphs,
Bloom filters, known-id sets) and calls the real ``conclude()`` on
every node — so verdicts are produced by the exact same decision code
as the scheduler, and traffic is accounted byte-for-byte.

D is the delivery digraph: graph adjacency minus a two-faced node's
``silent_towards`` arcs.

* **NECTAR and MtGv2** share :func:`_relay`.  Items are edges (NECTAR)
  or signed node ids (MtGv2); bit k of a node's bitset stands for item
  k.  The items node i holds after round d are
  ``W_i[d] = W_i[d−1] | OR_{j∈in_D(i)} F_j[d−1]``, where ``F_j[d−1]``
  are the items j accepted in round d−1 (its origins at d = 0),
  iterated until a round sends nothing.  The accepted copy of an item
  comes from the smallest-id in-neighbor that relayed it (deliveries
  arrive in sorted sender order), so scanning in-neighbors in
  ascending order yields each node's source exclusions.  At round r a
  node relays ``F_i[r−1]`` to every D-neighbor except each item's
  source, inside one batch envelope per neighbor (NECTAR chains carry
  r links in round r).  A node that never receives an item never
  holds its bit, however many rounds run.
* **MtG** — Bloom pages are ints merged with OR.  A node gossips when
  its filter changed since its last gossip (or on its periodic
  refresh), compared on the actual bits so Bloom collisions behave
  exactly as in the scheduler.

Quiescence mirrors the scheduler exactly: the first round that emits
zero envelopes is executed and then iteration stops (when the
quiescence skip is on).

Eligibility is strict — ``sync`` backend, an always-delivering channel
state, and a protocol population drawn entirely from one family's
closed-form-safe types.  Anything else returns None and the caller
runs the scheduler.  One documented observability divergence: trials
that reach this engine never touch the verification cache, so
``cache_stats`` counters stay zero where the scheduler would count
hits (verdicts, traffic and rows are unaffected; the affected
configurations are FULL-mode runs with a cache and a two-faced
adversary).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.adversary.behaviors import (
    SaturatingMtgNode,
    TwoFacedMtgNode,
    TwoFacedMtgv2Node,
    TwoFacedNectarNode,
)
from repro.baselines.bloom import BloomFilter
from repro.baselines.mtg import MtgNode
from repro.baselines.mtgv2 import Mtgv2Node
from repro.core.adjacency import DiscoveredGraph
from repro.core.nectar import NectarNode
from repro.crypto.sizes import WireProfile
from repro.graphs.graph import Graph
from repro.net.channel import ChannelModel
from repro.net.stats import TrafficStats
from repro.types import NodeId

__all__ = ["try_run_trial"]

#: payload framing constants, mirrored from the payload classes (a
#: unit test pins them against the real ``encoded_size``).
_NECTAR_BATCH_COUNT_BYTES = 2
_NECTAR_CHAIN_COUNT_BYTES = 2
_MTGV2_COUNT_BYTES = 2
_BLOOM_GEOMETRY_BYTES = 5


def try_run_trial(
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    *,
    profile: WireProfile,
    channel: ChannelModel,
    seed: int,
    rounds: int,
    quiescence_skip: bool,
) -> tuple[dict[NodeId, Any], TrafficStats, int] | None:
    """Run one trial through the closed-form engine, if eligible.

    Returns ``(verdicts, stats, rounds_executed)`` — exactly what the
    scheduler's ``SyncNetwork.run`` would have produced — or None when
    any eligibility condition fails.
    """
    if rounds < 1:
        return None
    state = channel.state(graph, seed)
    if not state.always_delivers:
        return None
    family = _classify(graph, protocols)
    if family == "nectar":
        return _run_nectar(graph, protocols, profile, rounds, quiescence_skip)
    if family == "mtg":
        return _run_mtg(graph, protocols, profile, rounds, quiescence_skip)
    if family == "mtgv2":
        return _run_mtgv2(graph, protocols, profile, rounds, quiescence_skip)
    return None


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _classify(graph: Graph, protocols: Mapping[NodeId, Any]) -> str | None:
    kinds = {type(p) for p in protocols.values()}
    if kinds <= {NectarNode, TwoFacedNectarNode}:
        has_two_faced = TwoFacedNectarNode in kinds
        uses_cache = False
        for node_id, p in protocols.items():
            if not p._batching or p._neighbors != graph.neighbors(node_id):
                return None
            validator = p._validator
            if validator.mode.value == "full" and validator.cache is not None:
                uses_cache = True
        if uses_cache and not has_two_faced:
            # FULL honest runs with a shared cache keep the scheduler:
            # their cache-hit observability is pinned by tests, and
            # deferred chain signing (repro.crypto.chain) already
            # skips the signatures no receiver reads.
            return None
        return "nectar"
    if kinds <= {MtgNode, SaturatingMtgNode, TwoFacedMtgNode}:
        geometries = {
            (p._filter.bit_count, p._filter.hash_count) for p in protocols.values()
        }
        if len(geometries) != 1:
            return None
        bit_count = next(iter(geometries))[0]
        if bit_count % 8 != 0:
            return None
        for node_id, p in protocols.items():
            if p._n != graph.n or p._neighbors != graph.neighbors(node_id):
                return None
        return "mtg"
    if kinds <= {Mtgv2Node, TwoFacedMtgv2Node}:
        for node_id, p in protocols.items():
            if p._n != graph.n or p._neighbors != graph.neighbors(node_id):
                return None
        return "mtgv2"
    return None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _delivery_arcs(
    graph: Graph, protocols: Mapping[NodeId, Any]
) -> tuple[list[list[NodeId]], list[list[NodeId]]]:
    """Sorted out- and in-neighbor lists of the delivery digraph D."""
    n = graph.n
    out_arcs: list[list[NodeId]] = []
    in_arcs: list[list[NodeId]] = [[] for _ in range(n)]
    for node_id in range(n):
        silent = getattr(protocols[node_id], "_silent_towards", ())
        targets = sorted(v for v in graph.neighbors(node_id) if v not in silent)
        out_arcs.append(targets)
        for target in targets:
            in_arcs[target].append(node_id)
    return out_arcs, in_arcs


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    binary = bin(mask)[:1:-1]
    return [index for index, bit in enumerate(binary) if bit == "1"]


class _Traffic:
    """Per-node send/receive accumulators, flushed into TrafficStats."""

    def __init__(self, n: int) -> None:
        self.sent_bytes = [0] * n
        self.sent_msgs = [0] * n
        self.recv_bytes = [0] * n
        self.recv_msgs = [0] * n

    def stats(self) -> TrafficStats:
        stats = TrafficStats()
        for node, count in enumerate(self.sent_msgs):
            if count:
                stats.record_send_bulk(node, self.sent_bytes[node], count)
        for node, count in enumerate(self.recv_msgs):
            if count:
                stats.record_receive_bulk(node, self.recv_bytes[node], count)
        return stats


def _conclude_all(protocols: Mapping[NodeId, Any]) -> dict[NodeId, Any]:
    return {node_id: protocols[node_id].conclude() for node_id in sorted(protocols)}


# ----------------------------------------------------------------------
# NECTAR and MtGv2: relay-once flooding with source exclusion
# ----------------------------------------------------------------------
def _relay(
    out_arcs: list[list[NodeId]],
    in_arcs: list[list[NodeId]],
    origins: list[int],
    rounds: int,
    quiescence_skip: bool,
    header: int,
    entry_bytes: int,
    link_bytes: int,
) -> tuple[list[int], _Traffic, int]:
    """Flood item bitsets over D; return held items, traffic, rounds run.

    Every node relays the items it accepted in the previous round (its
    ``origins`` in round 1) once, to every D-neighbor except the item's
    source; an envelope of ``count`` items in round r is
    ``header + count * (entry_bytes + r * link_bytes)`` bytes.
    """
    n = len(origins)
    traffic = _Traffic(n)
    sent_bytes, sent_msgs = traffic.sent_bytes, traffic.sent_msgs
    recv_bytes, recv_msgs = traffic.recv_bytes, traffic.recv_msgs
    held = list(origins)
    fresh = list(origins)
    # excluded[i][j]: how many of fresh[i] came from in-neighbor j.
    excluded: list[dict[NodeId, int]] = [{} for _ in range(n)]
    rounds_executed = rounds
    for round_number in range(1, rounds + 1):
        per_entry = entry_bytes + round_number * link_bytes
        sent_any = False
        for node in range(n):
            items = fresh[node]
            if not items:
                continue
            total = items.bit_count()
            sources = excluded[node]
            for target in out_arcs[node]:
                count = total - sources.get(target, 0)
                if count:
                    size = header + count * per_entry
                    sent_bytes[node] += size
                    sent_msgs[node] += 1
                    recv_bytes[target] += size
                    recv_msgs[target] += 1
                    sent_any = True
        if not sent_any:
            # Nothing sent means nothing delivered: every later round
            # is silent too, so only the executed-round count differs.
            if quiescence_skip:
                rounds_executed = round_number
            break
        accepted = []
        for node in range(n):
            missing = ~held[node]
            gained = 0
            sources = {}
            for sender in in_arcs[node]:
                got = fresh[sender] & missing
                if got:
                    sources[sender] = got.bit_count()
                    gained |= got
                    missing ^= got
            held[node] |= gained
            accepted.append(gained)
            excluded[node] = sources
        fresh = accepted
    return held, traffic, rounds_executed


def _run_nectar(
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
):
    n = graph.n
    edges = sorted(graph.edges())
    origins = [0] * n
    for index, (u, v) in enumerate(edges):
        bit = 1 << index
        origins[u] |= bit
        origins[v] |= bit
    out_arcs, in_arcs = _delivery_arcs(graph, protocols)
    held, traffic, rounds_executed = _relay(
        out_arcs,
        in_arcs,
        origins,
        rounds,
        quiescence_skip,
        header=profile.envelope_header_bytes + _NECTAR_BATCH_COUNT_BYTES,
        entry_bytes=profile.proof_bytes + _NECTAR_CHAIN_COUNT_BYTES,
        link_bytes=profile.chain_link_bytes,
    )

    # Materialise each node's discovered graph from the shared proof
    # objects (the same objects the scheduler would have delivered),
    # then decide with the real decision code.  Nodes that end with
    # the same edge set (all correct nodes of a connected run, by
    # Lemma 2) get copies of one graph built once.
    proof_by_edge = {}
    for p in protocols.values():
        for proof in p._neighbor_proofs.values():
            proof_by_edge[proof.edge] = proof
    built: dict[int, DiscoveredGraph] = {}
    for node_id in range(n):
        items = held[node_id]
        template = built.get(items)
        if template is None:
            template = built[items] = DiscoveredGraph(n)
            for index in _bits(items):
                template.add(proof_by_edge[edges[index]])
        protocols[node_id]._discovered = template.copy()
    return _conclude_all(protocols), traffic.stats(), rounds_executed


def _run_mtgv2(
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
):
    n = graph.n
    origins = [1 << node_id for node_id in range(n)]
    out_arcs, in_arcs = _delivery_arcs(graph, protocols)
    held, traffic, rounds_executed = _relay(
        out_arcs,
        in_arcs,
        origins,
        rounds,
        quiescence_skip,
        header=(
            profile.envelope_header_bytes
            + profile.epoch_header_bytes
            + _MTGV2_COUNT_BYTES
        ),
        entry_bytes=profile.signed_id_bytes(),
        link_bytes=0,
    )

    own_ids = [protocols[node_id]._known[node_id] for node_id in range(n)]
    for node_id in range(n):
        known = protocols[node_id]._known
        for item in _bits(held[node_id] & ~origins[node_id]):
            known[item] = own_ids[item]
    return _conclude_all(protocols), traffic.stats(), rounds_executed


# ----------------------------------------------------------------------
# MtG
# ----------------------------------------------------------------------
def _run_mtg(
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
):
    n = graph.n
    out_arcs, in_arcs = _delivery_arcs(graph, protocols)
    sample = protocols[0]._filter
    bit_count, hash_count = sample.bit_count, sample.hash_count
    page = bit_count // 8
    full_page = (1 << bit_count) - 1

    filters = [
        int.from_bytes(protocols[node_id]._filter.to_bytes(), "big")
        for node_id in range(n)
    ]
    saturating = [type(protocols[node]) is SaturatingMtgNode for node in range(n)]
    periods = [protocols[node]._resend_period for node in range(n)]
    # None until a node first gossips.
    last_sent: list[int | None] = [None] * n
    envelope_size = (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + _BLOOM_GEOMETRY_BYTES
        + page
    )
    traffic = _Traffic(n)

    rounds_executed = rounds
    for round_number in range(1, rounds + 1):
        current = [
            full_page if saturating[node] else filters[node] for node in range(n)
        ]
        gossiping = [False] * n
        sent_any = False
        for node in range(n):
            period = periods[node]
            periodic = period > 0 and round_number % period == 0
            if not periodic and current[node] == last_sent[node]:
                continue
            # The node snapshots last_sent before its sends are
            # filtered, so even a fully-silenced gossiper updates it.
            last_sent[node] = current[node]
            gossiping[node] = True
            degree = len(out_arcs[node])
            if degree:
                traffic.sent_bytes[node] += degree * envelope_size
                traffic.sent_msgs[node] += degree
                sent_any = True
        if not sent_any:
            if quiescence_skip:
                rounds_executed = round_number
                break
            continue
        for node in range(n):
            merged = filters[node]
            arrivals = 0
            for sender in in_arcs[node]:
                if gossiping[sender]:
                    merged |= current[sender]
                    arrivals += 1
            if arrivals:
                filters[node] = merged
                traffic.recv_bytes[node] += arrivals * envelope_size
                traffic.recv_msgs[node] += arrivals

    for node_id in range(n):
        protocols[node_id]._filter = BloomFilter.from_bytes(
            bit_count, hash_count, filters[node_id].to_bytes(page, "big")
        )
    return _conclude_all(protocols), traffic.stats(), rounds_executed
