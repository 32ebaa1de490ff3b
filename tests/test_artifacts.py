"""Equivalence and invalidation suite for the artifact layer
(DESIGN.md §9).

The ArtifactCache contract is that enabling it never changes a result:
sweep rows, verdicts and traffic statistics must be bit-identical with
the cache on vs off, serial vs any worker count.  The invalidation
contract is that every field of the keyed specs participates in the
content address — mutating anything changes the key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.crypto import HmacScheme, NullScheme, RsaScheme, scheme_fingerprint
from repro.crypto.signer import SignatureScheme
from repro.errors import ExperimentError
from repro.experiments.artifacts import (
    ARTIFACTS,
    ArtifactCache,
    artifact_key,
    clear_artifact_cache,
)
from repro.experiments.envspec import DEFAULT_ENVIRONMENT, EnvironmentSpec
from repro.experiments.mission import clear_mission_memo
from repro.experiments.persistence import figure_to_dict
from repro.experiments.runner import build_deployment, run_trial
from repro.experiments.spec import SWEEP_ENGINE, TopologySpec
from repro.graphs import connectivity
from repro.graphs.generators.regular import harary_graph
from repro.graphs.graph import Graph
from repro.perf import fastpath


@pytest.fixture(autouse=True)
def _cold_artifacts():
    """Every test starts and ends with an empty artifact cache."""
    clear_artifact_cache()
    yield
    clear_artifact_cache()


# ----------------------------------------------------------------------
# Graph digests
# ----------------------------------------------------------------------
class TestGraphDigest:
    def test_equal_graphs_share_digest(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(2, 3), (2, 1), (0, 1)])  # other order, same graph
        assert a.digest() == b.digest()

    def test_edge_change_changes_digest(self):
        a = Graph(4, [(0, 1), (1, 2)])
        b = Graph(4, [(0, 1), (1, 3)])
        assert a.digest() != b.digest()

    def test_node_count_changes_digest(self):
        a = Graph(3, [(0, 1)])
        b = Graph(4, [(0, 1)])
        assert a.digest() != b.digest()


# ----------------------------------------------------------------------
# Store behaviour
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_topology_interned_once(self):
        cache = ArtifactCache()
        builds = []

        def build():
            builds.append(1)
            return harary_graph(2, 6)

        first = cache.topology("key", build)
        second = cache.topology("key", build)
        assert first is second
        assert len(builds) == 1
        assert cache.stats.topology_hits == 1
        assert cache.stats.topology_misses == 1

    def test_key_pool_hit_requires_same_scheme_n_seed(self):
        cache = ArtifactCache()

        def pool(scheme, n, seed):
            from repro.crypto.keys import KeyStore

            return cache.key_store(
                scheme, range(n), seed, lambda: KeyStore(scheme, range(n), seed=seed)
            )

        pool(HmacScheme(), 5, 0)
        pool(HmacScheme(), 5, 0)  # hit: fresh instance, same fingerprint
        assert cache.stats.key_pool_hits == 1
        pool(HmacScheme(), 6, 0)  # different n
        pool(HmacScheme(), 5, 1)  # different seed
        pool(NullScheme(), 5, 0)  # different scheme
        pool(RsaScheme(bits=256), 5, 0)  # different scheme again
        assert cache.stats.key_pool_misses == 5

    def test_unknown_scheme_bypasses_the_pool(self):
        class WeirdScheme(SignatureScheme):
            signature_size = 8

            def generate_keypair(self, node_id, rng):
                from repro.crypto.signer import KeyPair

                return KeyPair(node_id=node_id, private_key=b"x", public_key=b"y")

            def sign(self, key_pair, data):
                return b"\x00" * 8

            def verify(self, public_key, data, signature):
                return True

        assert scheme_fingerprint(WeirdScheme()) is None
        cache = ArtifactCache()
        from repro.crypto.keys import KeyStore

        scheme = WeirdScheme()
        first = cache.key_store(
            scheme, range(3), 0, lambda: KeyStore(scheme, range(3), seed=0)
        )
        second = cache.key_store(
            scheme, range(3), 0, lambda: KeyStore(scheme, range(3), seed=0)
        )
        assert first is not second
        assert cache.stats.key_pool_bypasses == 2
        assert len(cache) == 0

# ----------------------------------------------------------------------
# Invalidation: every spec field participates in the artifact key
# ----------------------------------------------------------------------
_TOPOLOGY_SPECS = st.builds(
    TopologySpec,
    kind=st.sampled_from(("family", "drone", "bridged-drone", "split")),
    n=st.integers(4, 40),
    k=st.integers(0, 6),
    family=st.sampled_from(("", "harary", "k-regular", "k-diamond")),
    t=st.integers(0, 3),
    distance=st.floats(0.0, 6.0, allow_nan=False),
    radius=st.floats(0.5, 3.0, allow_nan=False),
    seed=st.integers(0, 10),
)

_ENVIRONMENTS = st.builds(
    EnvironmentSpec,
    backend=st.sampled_from(("sync", "async")),
    channel=st.sampled_from(("", "lossy", "jittered", "mobility")),
    loss_rate=st.floats(0.0, 0.9, allow_nan=False),
    jitter_ms=st.floats(0.0, 5.0, allow_nan=False),
    validation=st.sampled_from(("", "full", "accounting")),
    scheme=st.sampled_from(("", "hmac", "rsa-256")),
    cache=st.booleans(),
    artifacts=st.booleans(),
    quiescence_skip=st.booleans(),
)


class TestKeyInvalidation:
    @settings(max_examples=60, deadline=None)
    @given(_TOPOLOGY_SPECS, _TOPOLOGY_SPECS)
    def test_distinct_topology_specs_have_distinct_keys(self, a, b):
        """Mutating *any* field must change the artifact key."""
        if a == b:
            assert a.artifact_key() == b.artifact_key()
        else:
            assert a.artifact_key() != b.artifact_key()

    @settings(max_examples=60, deadline=None)
    @given(_TOPOLOGY_SPECS, st.integers(0, 7))
    def test_single_field_mutation_changes_key(self, spec, salt):
        fields = dataclasses.fields(TopologySpec)
        field = fields[salt % len(fields)]
        value = getattr(spec, field.name)
        if isinstance(value, str):
            mutated = value + "x"
        elif isinstance(value, float):
            mutated = value + 1.0
        else:
            mutated = value + 1
        other = dataclasses.replace(spec, **{field.name: mutated})
        assert other.artifact_key() != spec.artifact_key()

    @settings(max_examples=60, deadline=None)
    @given(_ENVIRONMENTS, _ENVIRONMENTS)
    def test_distinct_environments_have_distinct_payload_digests(self, a, b):
        """The env payload (the spec-digest input that keys persisted
        results and fabric jobs) must separate any two distinct specs."""
        key_a = artifact_key({"env": a.payload()})
        key_b = artifact_key({"env": b.payload()})
        if a == b:
            assert key_a == key_b
        else:
            assert key_a != key_b


# ----------------------------------------------------------------------
# Equivalence: cache on == cache off, serial == sharded
# ----------------------------------------------------------------------
def _figure_fingerprint(figure):
    return figure_to_dict(figure)


class TestSweepEquivalence:
    def _compare(self, figure_id, overrides, workers_list=(None, 2)):
        baseline = SWEEP_ENGINE.run(figure_id, overrides=dict(overrides))
        expected = _figure_fingerprint(baseline)
        for workers in workers_list:
            clear_artifact_cache()
            cached = SWEEP_ENGINE.run(
                figure_id,
                overrides={**overrides, "env.artifacts": True},
                workers=workers,
            )
            assert _figure_fingerprint(cached) == expected, (
                f"{figure_id}: rows diverged with artifacts on "
                f"(workers={workers})"
            )

    def test_fig3_rows_identical(self):
        self._compare("fig3", {"ns": (8, 10), "ks": (2, 4)})

    def test_connectivity_resilience_rows_identical(self):
        self._compare(
            "connectivity-resilience",
            {"families": ("k-diamond",), "n": 14, "k": 4, "ts": (2,), "trials": 2},
        )

    def test_topology_comparison_rows_identical(self):
        self._compare(
            "topology-comparison",
            {"families": ("k-regular", "k-diamond"), "n": 12, "k": 4, "trials": 2},
        )

    def test_fig8_rows_identical(self):
        self._compare("fig8", {"n": 13, "ts": (1, 2), "trials": 2})

    def test_rsa_scheme_rows_identical(self):
        self._compare(
            "fig3", {"ns": (8,), "ks": (2, 3)}, workers_list=(None,)
        )
        clear_artifact_cache()
        off = SWEEP_ENGINE.run(
            "fig3", overrides={"ns": (8,), "ks": (2, 3), "env.scheme": "rsa-256"}
        )
        clear_artifact_cache()
        on = SWEEP_ENGINE.run(
            "fig3",
            overrides={
                "ns": (8,),
                "ks": (2, 3),
                "env.scheme": "rsa-256",
                "env.artifacts": True,
            },
        )
        assert _figure_fingerprint(on) == _figure_fingerprint(off)
        assert ARTIFACTS.stats.key_pool_hits >= 1  # pooled across the two cells


class TestKindChecks:
    def test_mismatched_spec_fails_identically_with_warm_cache(self):
        """A spec whose adversary expects a different topology kind
        must raise the same targeted error cold, warm, or uncached —
        a warm intern must never stand in for the kind check."""
        from repro.experiments.spec import TrialSpec, execute_trial

        top = TopologySpec(kind="partitioned-drone", n=13, t=2, seed=0)
        for artifacts in (False, True, True):  # off, cold cache, warm cache
            spec = TrialSpec(
                topology=top,
                protocol="nectar",
                adversary="two-faced",
                measure="success-rate",
                env=EnvironmentSpec(artifacts=artifacts),
            )
            if artifacts:
                # Warm the intern store, so the second artifact round
                # hits the cache.
                ARTIFACTS.topology(top.artifact_key(), top.build_artifact)
            with pytest.raises(ExperimentError, match="is not a scenario"):
                execute_trial(spec)

    def test_cost_trial_on_scenario_kind_fails_identically(self):
        from repro.experiments.spec import TrialSpec, execute_trial

        top = TopologySpec(kind="split", family="k-diamond", n=14, k=4, t=2)
        for artifacts in (False, True):
            spec = TrialSpec(
                topology=top, env=EnvironmentSpec(artifacts=artifacts)
            )
            with pytest.raises(ExperimentError, match="needs build_scenario"):
                execute_trial(spec)


class TestTrialEquivalence:
    def test_rsa_trial_verdicts_and_traffic_identical(self):
        graph = harary_graph(2, 8)
        plain = run_trial(
            graph, t=1, scheme=RsaScheme(bits=256), seed=3,
        )
        clear_artifact_cache()
        cached_env = EnvironmentSpec(artifacts=True)
        first = run_trial(
            graph, t=1, scheme=RsaScheme(bits=256), seed=3, env=cached_env
        )
        second = run_trial(
            graph, t=1, scheme=RsaScheme(bits=256), seed=3, env=cached_env
        )
        # The second run reuses the whole interned deployment (keys and
        # proofs), so the key pool is only consulted by the first build.
        assert ARTIFACTS.stats.deployment_hits == 1
        assert ARTIFACTS.stats.deployment_misses == 1
        assert ARTIFACTS.stats.key_pool_misses == 1
        for result in (first, second):
            assert result.verdicts == plain.verdicts
            assert result.stats.bytes_sent == plain.stats.bytes_sent
            assert result.ground_truth == plain.ground_truth

    def test_hmac_pooled_deployment_still_verifies(self):
        graph = harary_graph(2, 8)
        env = EnvironmentSpec(artifacts=True)
        first = run_trial(graph, t=1, seed=0, env=env)
        second = run_trial(graph, t=1, seed=0, env=env)
        baseline = run_trial(graph, t=1, seed=0)
        assert first.verdicts == second.verdicts == baseline.verdicts
        assert first.stats.bytes_sent == baseline.stats.bytes_sent

    def test_resilience_sweep_computes_each_kappa_once(self, monkeypatch):
        """Decisions and ground truth share one κ memo in both modes.

        The Sec. V-D axes below build 60 distinct scenario graphs, each
        scored by three protocol series; every graph costs exactly one
        vertex-connectivity computation, with or without artifacts.
        Each sweep starts with an empty memo, so the second run
        recomputes all 60.
        """
        original = connectivity.vertex_connectivity
        calls = []

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return original(graph, *args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "vertex_connectivity", None) is original:
                monkeypatch.setattr(module, "vertex_connectivity", counting)
        overrides = {
            "families": (
                "k-regular",
                "k-pasted-tree",
                "k-diamond",
                "generalized-wheel",
                "multipartite-wheel",
            ),
            "n": 24,
            "k": 6,
            "ts": (1, 2, 3, 4),
            "trials": 3,
        }
        for extra in ({}, {"env.artifacts": True}):
            calls.clear()
            SWEEP_ENGINE.run(
                "connectivity-resilience", overrides={**overrides, **extra}
            )
            assert len(calls) == 60, extra

    def test_build_deployment_uses_pool_scheme(self):
        graph = harary_graph(2, 6)
        first = build_deployment(graph, seed=5, artifacts=True)
        second = build_deployment(graph, seed=5, artifacts=True)
        assert first.key_store is second.key_store
        assert second.scheme is first.key_store.scheme


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
class TestEnvironmentKnobs:
    def test_default_environment_payload_unchanged(self):
        """The new fields must not disturb pre-existing spec digests."""
        assert DEFAULT_ENVIRONMENT.payload() == {}
        assert not DEFAULT_ENVIRONMENT.artifacts
        assert DEFAULT_ENVIRONMENT.scheme == ""

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ExperimentError, match="unknown signature scheme"):
            EnvironmentSpec(scheme="dsa").validate()

    def test_artifact_axis_coercion(self):
        resolved = SWEEP_ENGINE.resolve(
            "fig3", overrides={"env.artifacts": "true", "env.scheme": "rsa-256"}
        )
        assert resolved.env.artifacts is True
        assert resolved.env.scheme == "rsa-256"

# ----------------------------------------------------------------------
# Worker counters (DESIGN.md §10.3): drain / merge / sharded stats
# ----------------------------------------------------------------------
def _lookups(counters: dict) -> dict:
    return {
        store: counters[f"{store}_hits"] + counters[f"{store}_misses"]
        for store in ("topology", "key_pool", "deployment")
    }


class TestWorkerDeltas:
    def test_drain_reports_only_new_counters(self):
        cache = ArtifactCache()
        cache.topology("a", lambda: "A")
        first = cache.drain_counters()
        assert first["topology_misses"] == 1
        cache.topology("a", lambda: "A")  # hit: no rebuild
        cache.topology("b", lambda: "B")
        second = cache.drain_counters()
        assert second["topology_hits"] == 1
        assert second["topology_misses"] == 1
        parent = ArtifactCache()
        parent.merge_counters(first)
        parent.merge_counters(second)
        assert parent.stats.topology_hits == 1
        assert parent.stats.topology_misses == 2

    def test_sharded_stats_cover_the_process_tree(self):
        """Each store's lookups are the same sharded and serial.

        The sharded run starts with the serial run's counters in the
        parent, so a forked worker that re-reported its inherited
        counters would inflate the totals.  Key pools are consulted
        only inside a deployment miss, so they are pinned to those.
        """
        cases = (
            ("fig3", {"ns": (8, 10), "ks": (2, 4)}),
            ("connectivity-resilience", {}),
        )
        for figure_id, overrides in cases:
            overrides = {**overrides, "env.artifacts": True}
            clear_artifact_cache()
            SWEEP_ENGINE.run(figure_id, overrides=dict(overrides))
            serial = ARTIFACTS.stats.counters()
            SWEEP_ENGINE.run(figure_id, overrides=dict(overrides), workers=2)
            total = ARTIFACTS.stats.counters()
            sharded = {name: total[name] - serial[name] for name in total}
            for store in ("topology", "deployment"):
                assert _lookups(sharded)[store] == _lookups(serial)[store], (
                    figure_id,
                    store,
                )
            for counts in (serial, sharded):
                assert _lookups(counts)["key_pool"] == counts["deployment_misses"]


# ----------------------------------------------------------------------
# Exact work pins: what the artifact stores and the fast path save
# ----------------------------------------------------------------------
def _rows_digest(figure) -> str:
    """SHA-256 of the figure's flat rows (series, x, mean, ci, trials)."""
    rows = [
        [series.name, point.x, point.mean, point.ci_half_width, point.trials]
        for series in figure.series
        for point in series.points
    ]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: name -> (figure, overrides, rows digest, (hits, misses) per store,
#: RSA keygens, fast-path takes or None when unpinned).  Every value is
#: exact and machine-independent: the same with the fast path on and
#: off, except the takes, which are 0 under ``REPRO_NO_FASTPATH=1``.
_WORK_PINS = {
    "rsa-keygen": (
        "fig3",
        {"ns": (8,), "ks": (2, 3, 4, 5, 6), "env.scheme": "rsa-1024"},
        "1d7f6c9956e30370b16f6bb1e37cef31d59a418456e6d62300609c50bf7c94a8",
        {"topology": (0, 5), "key_pool": (4, 1), "deployment": (0, 5)},
        8,  # 40 with env.artifacts off: one key pool per (n, seed)
        5,
    ),
    "connectivity-resilience": (
        "connectivity-resilience",
        {
            "families": ("k-regular", "k-diamond"),
            "n": 14,
            "k": 4,
            "ts": (2,),
            "trials": 2,
        },
        "cb57f43c0859a4eed07bdceb0fd21f83f448f980d0de21021f775e32f0ed2114",
        {"topology": (8, 4), "key_pool": (2, 2), "deployment": (8, 4)},
        0,
        12,
    ),
    "topology-interning": (
        "topology-comparison",
        {"families": ("k-regular", "k-diamond"), "n": 14, "k": 4, "trials": 2},
        "2bb61def032e87a6d764dced182d7aaa247d747c259d824284ff5c1f2dd72100",
        {"topology": (0, 4), "key_pool": (2, 1), "deployment": (1, 3)},
        0,
        4,
    ),
    "partition-detection": (
        "partition-detection",
        {"trials": 2, "epochs": 5, "drifts": (1.0,), "env.scheme": "rsa-512"},
        "ce8e24a89265f9d08b8188678857dab79a2a843cf742e1b84333d509d09c499a",
        {"topology": (0, 2), "key_pool": (8, 2), "deployment": (0, 10)},
        24,  # 120 with env.artifacts off: keys do not rotate mid-mission
        None,
    ),
}

#: scenarios cheap enough (~0.01 s) to also run with artifacts off.
_CHEAP = ("connectivity-resilience", "topology-interning")


class TestWorkPins:
    """Rows, store counters, keygens and fast-path takes, pinned exactly.

    Each scenario runs with ``env.artifacts=true`` from a cold artifact
    cache and a cold mission memo.  The counters are the noise-free
    quantities behind the artifact layer's speedups: a store that stops
    serving hits, or a fast path that stops taking trials, changes a
    count here.
    """

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {"keygens": 0, "fast": 0}
        generate_keypair = RsaScheme.generate_keypair
        try_run_trial = fastpath.try_run_trial

        def counting_keygen(self, *args, **kwargs):
            counts["keygens"] += 1
            return generate_keypair(self, *args, **kwargs)

        def counting_fastpath(*args, **kwargs):
            result = try_run_trial(*args, **kwargs)
            counts["fast"] += result is not None
            return result

        monkeypatch.setattr(RsaScheme, "generate_keypair", counting_keygen)
        monkeypatch.setattr(fastpath, "try_run_trial", counting_fastpath)
        return counts

    def _run(self, figure_id, overrides, artifacts):
        clear_artifact_cache()
        clear_mission_memo()
        return SWEEP_ENGINE.run(
            figure_id, overrides={**overrides, "env.artifacts": artifacts}
        )

    @pytest.mark.parametrize("name", sorted(_WORK_PINS))
    def test_scenario_work_is_pinned(self, name, work):
        figure_id, overrides, digest, stores, keygens, takes = _WORK_PINS[name]
        figure = self._run(figure_id, overrides, artifacts=True)
        stats = ARTIFACTS.stats
        observed = {
            "rows": _rows_digest(figure),
            "stores": {
                store: (
                    getattr(stats, f"{store}_hits"),
                    getattr(stats, f"{store}_misses"),
                )
                for store in stores
            },
            "keygens": work["keygens"],
        }
        expected = {"rows": digest, "stores": stores, "keygens": keygens}
        if takes is not None:
            observed["fast-path takes"] = work["fast"]
            expected["fast-path takes"] = takes if perf.fastpath_enabled() else 0
        assert observed == expected
        if name in _CHEAP:
            figure = self._run(figure_id, overrides, artifacts=False)
            assert _rows_digest(figure) == digest
