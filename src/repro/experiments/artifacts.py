"""Sweep-scoped artifact cache (DESIGN.md §9).

The figure sweeps are grids over (topology × adversary × seed) in which
most cells share expensive, *trial-invariant* work: constructing the
topology (or the whole attack scenario, minimum cuts included) and
generating signer key material and neighborhood proofs.  The per-trial
:class:`~repro.crypto.cache.VerificationCache` (DESIGN.md §6.1) cannot
help there — its lifetime is one trial.  :class:`ArtifactCache` is the
layer above: a process-wide, content-addressed memo for artifacts whose
value is a pure function of their key, shared by every trial of a
sweep that runs in this process.

Three stores:

* **topologies** — constructed :class:`~repro.graphs.graph.Graph`
  objects *and* attack-scenario deployments, keyed by the digest of the
  full :class:`~repro.experiments.spec.TopologySpec` payload.  Every
  cell that replays one topology builds it once per process.
* **key pools** — :class:`~repro.crypto.keys.KeyStore` objects keyed by
  ``(scheme fingerprint, n, seed)``.  Key generation is deterministic
  per seed, so RSA/HMAC key material is generated once per sweep rather
  than once per trial; with ``env.scheme=rsa-1024`` keygen dominates a
  trial, and a five-cell fig3 column runs 8 keygens instead of 40
  (pinned in ``tests/test_artifacts.py``).
* **deployments** — full :class:`~repro.experiments.runner.Deployment`
  records (keys *and* per-edge neighborhood proofs) keyed by ``(graph
  digest, scheme fingerprint, seed)``.  A sweep that replays the same
  topology across its measure series — every mission scenario does —
  signs each edge's proof once per process instead of once per cell;
  the key-pool store alone only amortised keygen, not the proofs.

Ground-truth κ is not a store here: it comes from the decision phase's
κ memo (:func:`~repro.core.decision.memoised_connectivity`), with or
without the artifact layer.

Correctness: every store memoises a *pure* builder, so a warm cache is
bit-identical to a cold one — sweep rows, verdicts and traffic stats do
not change, which ``tests/test_artifacts.py`` pins with the cache on vs
off, serial vs sharded.  Enablement is explicit (``env.artifacts``,
default off) so default spec digests and the historical execution path
are untouched.

Sharing: the cache is a module-level singleton (:data:`ARTIFACTS`).
Each worker process fills its own stores; nothing is shipped between
processes except hit/miss counters.  A sharded cell returns the
worker's :meth:`ArtifactCache.drain_counters` alongside its value and
the parent adds them up with :meth:`ArtifactCache.merge_counters`
(DESIGN.md §10.3), so the surfaced stats cover the whole process tree.
A forked worker inherits the parent's counters and must zero them
first (:func:`reset_artifact_counters`, the pool initializer), or the
parent would count its own lookups twice.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

from repro.crypto import scheme_fingerprint
from repro.crypto.keys import KeyStore
from repro.crypto.signer import SignatureScheme
from repro.experiments.persistence import spec_digest
from repro.graphs.graph import Graph

_Artifact = TypeVar("_Artifact")


def artifact_key(payload: dict) -> str:
    """A stable content address for a JSON-serialisable payload.

    Delegates to :func:`repro.experiments.persistence.spec_digest` —
    one canonical-JSON-then-SHA-256 convention for the whole repo — so
    *any* change to any field of the keyed spec produces a different
    key (the invalidation property ``tests/test_artifacts.py`` checks).

    Raises:
        ExperimentError: for payloads JSON cannot canonicalise.
    """
    return spec_digest(payload)


@dataclass
class ArtifactStats:
    """Mutable hit/miss counters, one pair per store."""

    topology_hits: int = 0
    topology_misses: int = 0
    key_pool_hits: int = 0
    key_pool_misses: int = 0
    #: key-store requests bypassed because the scheme had no
    #: fingerprint (unknown scheme types are never pooled).
    key_pool_bypasses: int = 0
    deployment_hits: int = 0
    deployment_misses: int = 0
    #: deployment requests bypassed because the scheme had no
    #: fingerprint (mirrors the key-pool bypass rule).
    deployment_bypasses: int = 0

    def hits(self) -> int:
        return self.topology_hits + self.key_pool_hits + self.deployment_hits

    def misses(self) -> int:
        return self.topology_misses + self.key_pool_misses + self.deployment_misses

    def total(self) -> int:
        return self.hits() + self.misses()

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle)."""
        total = self.total()
        return self.hits() / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-ready counters (what sweep artefacts record)."""
        return {
            "topology": {"hits": self.topology_hits, "misses": self.topology_misses},
            "key_pool": {
                "hits": self.key_pool_hits,
                "misses": self.key_pool_misses,
                "bypasses": self.key_pool_bypasses,
            },
            "deployment": {
                "hits": self.deployment_hits,
                "misses": self.deployment_misses,
                "bypasses": self.deployment_bypasses,
            },
            "hit_rate": self.hit_rate(),
        }

    def counters(self) -> dict[str, int]:
        """All counter fields as a flat name -> value mapping."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    def describe(self) -> str:
        """One human-readable summary line (sweep/mission CLI output)."""
        return (
            f"{self.hits()} hits / {self.misses()} misses "
            f"({self.hit_rate():.1%} hit rate; topologies "
            f"{self.topology_hits}/{self.topology_hits + self.topology_misses}, "
            f"key pools {self.key_pool_hits}/"
            f"{self.key_pool_hits + self.key_pool_misses}, "
            f"deployments {self.deployment_hits}/"
            f"{self.deployment_hits + self.deployment_misses})"
        )


class ArtifactCache:
    """Content-addressed stores for trial-invariant sweep artifacts.

    Every store maps a content address to a value produced by a pure
    builder.  The cache never invents values — a miss always calls the
    builder — and never mutates what it stores, so enabling it cannot
    change results.
    """

    def __init__(self) -> None:
        # Serialises store access for thread-concurrent clients: the
        # fleet service steps missions on worker threads against the
        # ARTIFACTS singleton (DESIGN.md §12).  Builders run under the
        # lock — they are pure and key-distinct requests rarely collide
        # in practice, and holding it guarantees one build per key.
        # Reentrant because builders may consult other stores.
        self._lock = threading.RLock()
        self.stats = ArtifactStats()
        self._topologies: dict[str, object] = {}
        self._key_pools: dict[tuple, KeyStore] = {}
        self._deployments: dict[tuple, object] = {}

    def __len__(self) -> int:
        return len(self._topologies) + len(self._key_pools) + len(self._deployments)

    # ------------------------------------------------------------------
    # The three stores
    # ------------------------------------------------------------------
    def topology(self, key: str, build: Callable[[], _Artifact]) -> _Artifact:
        """The interned topology (or scenario) for ``key``.

        ``key`` should come from :func:`artifact_key` over the full
        topology-spec payload; the builder runs on the first request.
        """
        with self._lock:
            cached = self._topologies.get(key)
            if cached is not None:
                self.stats.topology_hits += 1
                return cached  # type: ignore[return-value]
            self.stats.topology_misses += 1
            value = build()
            self._topologies[key] = value
            return value

    def key_store(
        self,
        scheme: SignatureScheme,
        node_ids: Iterable[int],
        seed: int,
        build: Callable[[], KeyStore],
    ) -> KeyStore:
        """The signer key pool for ``(scheme, node ids, seed)``.

        Callers must use the *returned* store's scheme for the rest of
        the deployment: stateful schemes (:class:`HmacScheme`) keep the
        verification directory on the instance that generated the keys.
        Schemes without a fingerprint are never pooled — the builder's
        fresh store is returned as-is.
        """
        fingerprint = scheme_fingerprint(scheme)
        if fingerprint is None:
            self.stats.key_pool_bypasses += 1
            return build()
        key = (fingerprint, tuple(sorted(set(node_ids))), seed)
        with self._lock:
            cached = self._key_pools.get(key)
            if cached is not None:
                self.stats.key_pool_hits += 1
                return cached
            self.stats.key_pool_misses += 1
            store = build()
            self._key_pools[key] = store
            return store

    def deployment(
        self,
        graph: Graph,
        scheme: SignatureScheme,
        seed: int,
        build: Callable[[], _Artifact],
    ) -> _Artifact:
        """The interned deployment for ``(graph, scheme, seed)``.

        Deployment construction is a pure function of the key (keygen
        and proof signing are seed-deterministic), so the cells of a
        sweep that replay one topology share keys *and* signed
        neighborhood proofs.  Schemes without a fingerprint are never
        pooled — the builder's fresh deployment is returned as-is
        (mirrors :meth:`key_store`).  Callers must treat the result as
        immutable, like every store entry.
        """
        fingerprint = scheme_fingerprint(scheme)
        if fingerprint is None:
            self.stats.deployment_bypasses += 1
            return build()
        key = (graph.digest(), fingerprint, seed)
        with self._lock:
            cached = self._deployments.get(key)
            if cached is not None:
                self.stats.deployment_hits += 1
                return cached  # type: ignore[return-value]
            self.stats.deployment_misses += 1
            value = build()
            self._deployments[key] = value
            return value

    # ------------------------------------------------------------------
    # Counters across processes
    # ------------------------------------------------------------------
    def drain_counters(self) -> dict[str, int]:
        """The counters since the last drain, which start again at zero.

        The worker side of sharded runs (DESIGN.md §10.3): each sharded
        cell returns its worker's increments so the parent can add them
        to its own stats.
        """
        with self._lock:
            counts = self.stats.counters()
            self.stats = ArtifactStats()
            return counts

    def merge_counters(self, counts: dict[str, int]) -> None:
        """Add one :meth:`drain_counters` report to :attr:`stats`."""
        with self._lock:
            for name, increment in counts.items():
                setattr(self.stats, name, getattr(self.stats, name) + increment)

    def clear(self) -> None:
        """Drop every store and reset the counters."""
        with self._lock:
            self.stats = ArtifactStats()
            self._topologies.clear()
            self._key_pools.clear()
            self._deployments.clear()


#: the process-wide cache every artifact-enabled trial consults.
ARTIFACTS = ArtifactCache()


def clear_artifact_cache() -> None:
    """Reset :data:`ARTIFACTS` (tests and bench cold-starts)."""
    ARTIFACTS.clear()


def reset_artifact_counters() -> None:
    """Worker-pool initializer: zero the counters a fork inherited.

    Module-level so :func:`repro.experiments.parallel.parallel_map` can
    ship it to worker processes.  Without it a forked worker's first
    :meth:`~ArtifactCache.drain_counters` would re-report the parent's
    counters, and the parent's merge would count them twice.
    """
    ARTIFACTS.drain_counters()


__all__ = [
    "ARTIFACTS",
    "ArtifactCache",
    "ArtifactStats",
    "artifact_key",
    "clear_artifact_cache",
    "reset_artifact_counters",
]
