"""Equivalence suite for the closed-form trial fast path (DESIGN.md §15).

The closed-form fast path in :mod:`repro.perf` is a drop-in
accelerator for the scheduler; these tests pin the contract that makes
that safe:

* the closed-form trial fast path reproduces the scheduler's verdicts
  and traffic byte-for-byte, including on random graphs with one
  two-faced node and run lengths past quiescence;
* fast-path trials run without numpy;
* honest FULL trials sign only the chain links someone reads, with the
  same verdicts and traffic on every path;
* the fast path's wire-framing constants match the payloads' real
  ``encoded_size`` arithmetic;
* the sweep's artifact layer (interning and key pools) leaves figure
  rows bit-identical to the scalar leg.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro import perf
from repro.baselines.mtg import BloomPayload, mtg_epoch_count
from repro.baselines.mtgv2 import SignedId, SignedIdsPayload
from repro.core.decision import clear_connectivity_cache
from repro.core.messages import EdgeAnnouncement, NectarBatch
from repro.core.validation import ValidationMode
from repro.crypto.chain import extend_chain
from repro.crypto.keys import build_keystore
from repro.crypto.proofs import make_proof, proof_bytes
from repro.crypto.signer import HmacScheme
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.experiments.runner import (
    baseline_cost_trial,
    honest_mtg_factory,
    honest_mtgv2_factory,
    honest_nectar_factory,
    nectar_cost_trial,
    run_trial,
)
from repro.graphs.generators.regular import harary_graph
from repro.graphs.graph import Graph
from repro.net.message import Envelope
from repro.perf import fastpath

_SCHEME = HmacScheme()
_STORE = build_keystore(_SCHEME, 8, seed=41)


# ----------------------------------------------------------------------
# Fast-path framing constants ≡ real encoded_size
# ----------------------------------------------------------------------
def test_nectar_framing_matches_encoded_size():
    profile = DEFAULT_PROFILE
    store = build_keystore(_SCHEME, 4, seed=3)
    proof = make_proof(_SCHEME, store.key_pair_of(0), store.key_pair_of(1))
    payload = proof_bytes(proof)
    count, round_number = 3, 2
    chain = ()
    for signer in range(round_number):
        chain = extend_chain(_SCHEME, store.key_pair_of(signer), payload, chain)
    batch = NectarBatch(tuple(EdgeAnnouncement(proof, chain) for _ in range(count)))
    expected = Envelope(0, round_number, batch).wire_size(profile)
    header = profile.envelope_header_bytes + fastpath._NECTAR_BATCH_COUNT_BYTES
    per_entry = profile.proof_bytes + fastpath._NECTAR_CHAIN_COUNT_BYTES
    assert header + count * (
        per_entry + round_number * profile.chain_link_bytes
    ) == expected


def test_mtg_framing_matches_encoded_size():
    profile = DEFAULT_PROFILE
    payload = BloomPayload(bit_count=64, hash_count=3, bits=bytes(8))
    expected = Envelope(0, 1, payload).wire_size(profile)
    assert (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + fastpath._BLOOM_GEOMETRY_BYTES
        + 8
    ) == expected


def test_mtgv2_framing_matches_encoded_size():
    profile = DEFAULT_PROFILE
    pair = _STORE.key_pair_of(0)
    entries = tuple(
        SignedId(i, _SCHEME.sign(pair, i.to_bytes(2, "big"))) for i in range(4)
    )
    payload = SignedIdsPayload(entries)
    expected = Envelope(0, 1, payload).wire_size(profile)
    assert (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + fastpath._MTGV2_COUNT_BYTES
        + 4 * profile.signed_id_bytes()
    ) == expected


# ----------------------------------------------------------------------
# Closed-form fast path ≡ scalar scheduler
# ----------------------------------------------------------------------
def _snapshot(result):
    stats = result.stats
    return (
        result.verdicts,
        dict(stats.bytes_sent),
        dict(stats.bytes_received),
        dict(stats.messages_sent),
        dict(stats.messages_received),
        result.rounds,
        result.rounds_executed,
    )


def _both_legs(trial):
    clear_connectivity_cache()
    with perf.force_fastpath(False):
        scalar = _snapshot(trial())
    clear_connectivity_cache()
    with perf.force_fastpath(True):
        fast = _snapshot(trial())
    return scalar, fast


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fastpath_nectar_cost_matches_scalar(seed):
    graph = harary_graph(4, 11 + seed)
    scalar, fast = _both_legs(lambda: nectar_cost_trial(graph, seed=seed))
    assert scalar == fast


@pytest.mark.parametrize("protocol", ["mtg", "mtgv2"])
def test_fastpath_baselines_match_scalar(protocol):
    graph = harary_graph(3, 10)
    scalar, fast = _both_legs(
        lambda: baseline_cost_trial(graph, protocol, seed=5)
    )
    assert scalar == fast


def test_fastpath_two_faced_nectar_matches_scalar():
    from repro.adversary.behaviors import TwoFacedNectarNode

    graph = harary_graph(4, 12)
    silent = frozenset({3, 4})

    def factory(setup):
        return TwoFacedNectarNode(
            setup.node_id,
            setup.n,
            setup.t,
            setup.key_store.key_pair_of(setup.node_id),
            setup.scheme,
            setup.key_store.directory,
            setup.neighbor_proofs,
            silent_towards=silent,
        )

    scalar, fast = _both_legs(
        lambda: run_trial(
            graph,
            t=2,
            seed=9,
            byzantine_factories={0: factory},
            validation_mode=ValidationMode.FULL,
            verification_cache=True,
            with_ground_truth=False,
        )
    )
    assert scalar == fast


@pytest.mark.parametrize(
    "honest_factory", [honest_mtg_factory, honest_mtgv2_factory]
)
def test_fastpath_adversarial_baselines_match_scalar(honest_factory):
    from repro.adversary.behaviors import SaturatingMtgNode, TwoFacedMtgv2Node

    graph = harary_graph(4, 12)
    if honest_factory is honest_mtg_factory:
        byzantine = {
            0: lambda setup: SaturatingMtgNode(setup.node_id, setup.n, setup.neighbors)
        }
    else:
        byzantine = {
            0: lambda setup: TwoFacedMtgv2Node(
                setup.node_id,
                setup.n,
                setup.neighbors,
                setup.key_store.key_pair_of(setup.node_id),
                setup.scheme,
                setup.key_store.directory,
                silent_towards=frozenset({2, 5}),
            )
        }
    scalar, fast = _both_legs(
        lambda: run_trial(
            graph,
            t=1,
            seed=13,
            honest_factory=honest_factory,
            rounds=mtg_epoch_count(graph.n),
            byzantine_factories=byzantine,
            with_ground_truth=False,
        )
    )
    assert scalar == fast


def test_fastpath_lossy_channel_stays_scalar():
    """A channel that can drop messages is ineligible: both legs run
    the scalar scheduler and the loss-RNG stream stays bit-exact."""
    from repro.experiments.envspec import EnvironmentSpec

    graph = harary_graph(3, 9)
    env = EnvironmentSpec(loss_rate=0.3)
    scalar, fast = _both_legs(
        lambda: nectar_cost_trial(graph, seed=4, env=env)
    )
    assert scalar == fast


# ----------------------------------------------------------------------
# Property: fast path ≡ scheduler under one two-faced node
# ----------------------------------------------------------------------
def _two_faced_factory(protocol, silent):
    from repro.adversary.behaviors import (
        TwoFacedMtgNode,
        TwoFacedMtgv2Node,
        TwoFacedNectarNode,
    )

    def factory(setup):
        keys = setup.key_store
        if protocol == "nectar":
            return TwoFacedNectarNode(
                setup.node_id,
                setup.n,
                setup.t,
                keys.key_pair_of(setup.node_id),
                setup.scheme,
                keys.directory,
                setup.neighbor_proofs,
                silent_towards=silent,
            )
        if protocol == "mtg":
            return TwoFacedMtgNode(
                setup.node_id, setup.n, setup.neighbors, silent_towards=silent
            )
        return TwoFacedMtgv2Node(
            setup.node_id,
            setup.n,
            setup.neighbors,
            keys.key_pair_of(setup.node_id),
            setup.scheme,
            keys.directory,
            silent_towards=silent,
        )

    return factory


_HONEST_FACTORIES = {
    "nectar": honest_nectar_factory,
    "mtg": honest_mtg_factory,
    "mtgv2": honest_mtgv2_factory,
}


@st.composite
def _two_faced_trials(draw):
    """A random graph (n ≤ 12) with one two-faced node and a run shape."""
    n = draw(st.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    graph = Graph(n, edges)
    byzantine = draw(st.integers(min_value=0, max_value=n - 1))
    neighbors = sorted(graph.neighbors(byzantine))
    silent = frozenset()
    if neighbors:
        silent = draw(st.frozensets(st.sampled_from(neighbors)))
    return (
        draw(st.sampled_from(sorted(_HONEST_FACTORIES))),
        graph,
        byzantine,
        silent,
        draw(st.integers(min_value=1, max_value=n + 3)),
        draw(st.booleans()),
        draw(st.integers(min_value=0, max_value=2**16)),
    )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_two_faced_trials())
# Nodes cut off by the two-faced node must never accept what cannot
# reach them, however many rounds run past quiescence.
@example(("nectar", Graph(4, [(0, 1), (1, 2), (2, 3)]), 1, frozenset({2}), 6, False, 3))
@example(("mtgv2", Graph(4, [(0, 1), (1, 2), (2, 3)]), 1, frozenset({2}), 5, False, 3))
def test_fastpath_matches_scheduler_under_two_faced_node(case):
    protocol, graph, byzantine, silent, rounds, skip, seed = case
    from repro.experiments.envspec import EnvironmentSpec

    def trial():
        return run_trial(
            graph,
            t=1,
            seed=seed,
            honest_factory=_HONEST_FACTORIES[protocol],
            byzantine_factories={byzantine: _two_faced_factory(protocol, silent)},
            rounds=rounds,
            with_ground_truth=False,
            env=EnvironmentSpec(quiescence_skip=skip),
        )

    scalar, fast = _both_legs(trial)
    assert scalar == fast


# ----------------------------------------------------------------------
# The fast path is pure Python: no numpy on any trial path
# ----------------------------------------------------------------------
_NO_NUMPY_PROBE = """
import json, sys
from repro.experiments.runner import nectar_cost_trial
from repro.experiments.spec import SWEEP_ENGINE
from repro.graphs.generators.regular import harary_graph
from repro.perf import fastpath

taken = []
plain = fastpath.try_run_trial

def counting(*args, **kwargs):
    result = plain(*args, **kwargs)
    taken.append(result is not None)
    return result

fastpath.try_run_trial = counting
nectar_cost_trial(harary_graph(4, 20), seed=0)
SWEEP_ENGINE.run(
    "connectivity-resilience",
    overrides={"families": ("k-diamond",), "n": 10, "k": 4, "ts": (1,), "trials": 1},
)
print(json.dumps({"numpy": "numpy" in sys.modules, "taken": taken}))
"""


def test_fastpath_trials_never_import_numpy():
    env = dict(os.environ)
    env.pop("REPRO_NO_FASTPATH", None)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    # One fig3 cost trial plus the two-faced resilience cell's trials,
    # every one of them on the fast path.
    assert len(report["taken"]) >= 2 and all(report["taken"])
    assert report["numpy"] is False


# ----------------------------------------------------------------------
# Deferred chain signing: same results, only read links are signed
# ----------------------------------------------------------------------
class _CountingHmacScheme(HmacScheme):
    """HMAC scheme that counts :meth:`sign` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.sign_calls = 0

    def sign(self, key_pair, data):
        self.sign_calls += 1
        return super().sign(key_pair, data)


def test_honest_full_trial_signs_only_read_links(monkeypatch):
    from repro.core import nectar
    from repro.experiments.envspec import EnvironmentSpec

    graph = harary_graph(4, 16)
    relayed = 0
    plain_extend = nectar.extend_chain

    def counting_extend(*args):
        nonlocal relayed
        relayed += 1
        return plain_extend(*args)

    monkeypatch.setattr(nectar, "extend_chain", counting_extend)

    def trial(**kwargs):
        nonlocal relayed
        relayed = 0
        scheme = _CountingHmacScheme()
        clear_connectivity_cache()
        result = run_trial(
            graph,
            t=0,
            seed=2,
            scheme=scheme,
            validation_mode=ValidationMode.FULL,
            connectivity_cutoff=1,
            with_ground_truth=False,
            **kwargs,
        )
        return _snapshot(result)[:5], scheme.sign_calls, relayed

    shared, signs, links = trial()
    assert trial() == (shared, signs, links)
    # Without a cache the fast path would take the trial; keep it on
    # the scheduler so every link goes through plain verify_chain.
    with perf.force_fastpath(False):
        uncached = trial(verification_cache=False)[0]
    # The asyncio backend encodes every envelope, which reads (and so
    # signs) every link: same rows, no savings.
    queued = trial(env=EnvironmentSpec(backend="async"))[0]
    assert shared == uncached == queued
    # 64 proof signatures plus the 300 links some receiver validated;
    # the other 212 relayed links are never signed.
    assert (signs, links) == (364, 512)


# ----------------------------------------------------------------------
# Sweep artifacts: interning and key pools leave rows bit-identical
# ----------------------------------------------------------------------
def test_warmed_sweep_rows_match_scalar_leg():
    """The accelerated leg (artifact cells, fast path on) gives the
    rows of the scalar leg (no artifacts, no fast path)."""
    from repro.experiments.artifacts import clear_artifact_cache
    from repro.experiments.spec import SWEEP_ENGINE

    overrides = {
        "families": ("k-diamond",),
        "n": 10,
        "k": 4,
        "ts": (1,),
        "trials": 2,
    }

    def rows(**extra):
        clear_artifact_cache()
        figure = SWEEP_ENGINE.run(
            "connectivity-resilience", overrides={**overrides, **extra}
        )
        return [
            (series.name, [(p.x, p.mean) for p in series.points])
            for series in figure.series
        ]

    with perf.force_fastpath(False):
        scalar = rows()
    assert rows(**{"env.artifacts": True}) == scalar
