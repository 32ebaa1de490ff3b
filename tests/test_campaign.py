"""Tests for adversarial mission campaigns (DESIGN.md §11).

Covers the campaign spec and its placement policies (static / random /
adaptive, determinism included), the coordinated-deception behaviours
(collusion-tracked equivocation, bad-aggregator censorship, sleepers),
the adversarial mission engine (verdicts read from correct nodes,
ground truth accounting for the live placement) and the registered
``detection-under-deception`` scenario (serial ≡ sharded rows).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.adversary.behaviors import (
    CollusionTracker,
    EquivocatingNectarNode,
    SilentNode,
    SleeperNectarNode,
)
from repro.adversary.campaign import (
    ADVERSARY_PROFILES,
    PLACEMENT_POLICIES,
    AdversarySpec,
    campaign_factories,
    plan_placements,
)
from repro.core.decision import clear_connectivity_cache
from repro.errors import ExperimentError
from repro.experiments.artifacts import clear_artifact_cache
from repro.experiments.mission import (
    MissionSpec,
    TrajectorySpec,
    clear_mission_memo,
    run_epoch,
    run_mission,
)
from repro.experiments.runner import run_trial
from repro.experiments.spec import SWEEP_ENGINE
from repro.graphs.connectivity import is_vertex_cut, minimum_vertex_cut
from repro.graphs.generators.classic import cycle_graph, path_graph
from repro.graphs.graph import Graph
from repro.types import Decision


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_mission_memo()
    clear_artifact_cache()
    clear_connectivity_cache()
    yield
    clear_mission_memo()
    clear_artifact_cache()


SCATTERS = TrajectorySpec(
    kind="drifting-scatters", n=10, epochs=5, start=0.0, drift=1.0, radius=1.8, seed=1
)

FAST = {"trials": 2, "epochs": 5, "drifts": (1.0,)}


class TestAdversarySpec:
    def test_defaults_validate_inside_budget(self):
        AdversarySpec(count=2).validate(t=2)

    def test_count_above_budget_rejected(self):
        with pytest.raises(ExperimentError, match="exceeds"):
            AdversarySpec(count=3).validate(t=2)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ExperimentError, match="profile"):
            AdversarySpec(profile="ufo").validate(t=2)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ExperimentError, match="placement"):
            AdversarySpec(placement="orbital").validate(t=2)

    def test_campaigns_target_nectar_only(self):
        mission = MissionSpec(
            trajectory=SCATTERS,
            t=2,
            protocol="mtg",
            adversary=AdversarySpec(count=2),
        )
        with pytest.raises(ExperimentError, match="nectar"):
            mission.validate()


class TestPlacements:
    def graphs(self):
        return tuple(SCATTERS.build())

    @pytest.mark.parametrize("placement", PLACEMENT_POLICIES)
    def test_same_seed_same_placements(self, placement):
        spec = AdversarySpec(profile="silent", placement=placement, count=2, seed=9)
        graphs = self.graphs()
        assert plan_placements(graphs, spec) == plan_placements(graphs, spec)

    def test_different_seeds_eventually_differ(self):
        graphs = self.graphs()
        draws = {
            tuple(
                plan_placements(
                    graphs, AdversarySpec(placement="random", count=2, seed=s)
                )[0]
            )
            for s in range(8)
        }
        assert len(draws) > 1

    def test_static_placement_never_moves(self):
        spec = AdversarySpec(placement="static", count=2, seed=3)
        placements = plan_placements(self.graphs(), spec)
        assert len(set(placements)) == 1

    def test_adaptive_placement_tracks_previous_epoch_cut(self):
        # A path graph has the unique minimum cut {middle nodes}; the
        # adaptive adversary must sit on (a subset of) the previous
        # epoch's cut from epoch 1 on.
        graphs = tuple(path_graph(6) for _ in range(4))
        spec = AdversarySpec(placement="adaptive", count=1, seed=0)
        placements = plan_placements(graphs, spec)
        cut_nodes = set(minimum_vertex_cut(graphs[0]))
        for byzantine in placements[1:]:
            assert set(byzantine) <= cut_nodes

    def test_adaptive_tops_up_beyond_the_cut(self):
        # count=2 but every min cut of a path graph has size 1: the
        # second node comes from the seeded RNG, deterministically.
        graphs = tuple(path_graph(5) for _ in range(3))
        spec = AdversarySpec(placement="adaptive", count=2, seed=4)
        first = plan_placements(graphs, spec)
        second = plan_placements(graphs, spec)
        assert first == second
        assert all(len(b) == 2 for b in first)

    def test_adaptive_falls_back_on_uncuttable_graphs(self):
        # Complete graphs have no vertex cut; the policy degrades to a
        # seeded random draw instead of raising.
        n = 4
        complete = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        spec = AdversarySpec(placement="adaptive", count=1, seed=2)
        placements = plan_placements((complete, complete, complete), spec)
        assert all(len(b) == 1 for b in placements)


class TestCollusionTracker:
    def test_halves_partition_the_correct_set(self):
        tracker = CollusionTracker(range(8), seed=1)
        favored, starved = tracker.halves
        assert favored | starved == set(range(8))
        assert not favored & starved

    def test_same_seed_same_split(self):
        assert (
            CollusionTracker(range(9), seed=5).halves
            == CollusionTracker(range(9), seed=5).halves
        )

    def test_coalition_shows_one_face_per_destination(self):
        # Two equivocators bridging a cycle; after a full run every
        # correct destination must have been shown exactly one face by
        # the whole coalition.
        graph = cycle_graph(6)
        byzantine = frozenset({0, 3})
        correct = sorted(set(range(6)) - byzantine)
        tracker = CollusionTracker(correct, seed=0)
        factories = campaign_factories(
            "equivocate", byzantine, 6, seed=0, tracker=tracker
        )
        run_trial(graph, t=2, byzantine_factories=factories, seed=0)
        assert tracker.events  # shaping actually happened
        assert tracker.consistent()

    def test_starved_half_misses_the_equivocators_edges(self):
        # On a 4-cycle with one equivocator, the starved half must not
        # confirm anything and the favored half sees the full graph;
        # Agreement still holds because relays through correct nodes
        # re-deliver the equivocator's edges eventually.
        graph = cycle_graph(4)
        byzantine = frozenset({0})
        correct = sorted(set(range(4)) - byzantine)
        tracker = CollusionTracker(correct, seed=0)
        factories = campaign_factories(
            "equivocate", byzantine, 4, seed=0, tracker=tracker
        )
        result = run_trial(graph, t=1, byzantine_factories=factories, seed=0)
        decisions = {v.decision for v in result.correct_verdicts.values()}
        assert len(decisions) == 1  # Agreement
        assert not any(v.confirmed for v in result.correct_verdicts.values())


class TestCampaignFactories:
    def test_deceptive_profile_is_the_validity_shape(self):
        factories = campaign_factories("deceptive", frozenset({0, 1}), 4, seed=0)
        assert set(factories) == {0, 1}
        # Lowest id sleeps (acts fully correctly), the rest stay silent.
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        result = run_trial(
            graph, t=2, byzantine_factories=factories, seed=0,
            with_ground_truth=False,
        )
        byzantine = frozenset({0, 1})
        assert not is_vertex_cut(graph, byzantine)
        for node in (2, 3):
            verdict = result.verdicts[node]
            assert verdict.decision is Decision.PARTITIONABLE
            assert verdict.confirmed is False  # the fixed Validity answer

    @pytest.mark.parametrize("profile", ADVERSARY_PROFILES)
    def test_every_profile_builds_and_runs(self, profile):
        graph = cycle_graph(6)
        byzantine = frozenset({1, 4})
        factories = campaign_factories(profile, byzantine, 6, seed=3)
        assert set(factories) == byzantine
        result = run_trial(graph, t=2, byzantine_factories=factories, seed=3)
        assert set(result.correct_verdicts) == {0, 2, 3, 5}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ExperimentError, match="profile"):
            campaign_factories("ufo", frozenset({0}), 4)

    def test_sleeper_builds_honest_machinery(self):
        factories = campaign_factories("sleeper", frozenset({2}), 5, seed=0)
        graph = cycle_graph(5)
        result = run_trial(graph, t=1, byzantine_factories=factories, seed=0)
        # A sleeper coalition is observationally honest: every node
        # (the sleeper included) reaches the honest verdict.
        honest = run_trial(graph, t=1, seed=0)
        assert result.verdicts == honest.verdicts


class TestAdversarialEpochs:
    def test_verdict_read_from_smallest_correct_node(self):
        graph = path_graph(5)
        factories = {0: lambda setup: SilentNode(setup.node_id)}
        outcome = run_epoch(
            graph, t=1, seed=0, with_truth=True, byzantine_factories=factories
        )
        # Node 0 is Byzantine, so the vantage point is node 1; a
        # silent endpoint does not cut the path.
        assert outcome.correct_cut is False

    def test_byzantine_epochs_target_nectar_only(self):
        with pytest.raises(ExperimentError, match="nectar"):
            run_epoch(
                path_graph(4),
                t=1,
                protocol="mtg",
                byzantine_factories={0: lambda setup: SilentNode(setup.node_id)},
            )

    def test_adversarial_mission_is_deterministic(self):
        mission = MissionSpec(
            trajectory=SCATTERS,
            t=2,
            connectivity_cutoff=3,
            seed=1,
            adversary=AdversarySpec(
                profile="deceptive", placement="adaptive", count=2, seed=1
            ),
        )
        first = run_mission(mission, workers=1)
        clear_mission_memo()
        clear_artifact_cache()
        second = run_mission(mission, workers=4)
        assert first.reports == second.reports

    def test_adversary_cut_rate_requires_ground_truth(self):
        mission = MissionSpec(trajectory=SCATTERS, t=2, seed=1)
        result = run_mission(mission, workers=1, with_truth=False)
        with pytest.raises(ExperimentError, match="ground truth"):
            result.adversary_cut_rate


class TestDeceptionScenario:
    def test_serial_and_sharded_rows_identical(self):
        resolved = SWEEP_ENGINE.resolve(
            "detection-under-deception",
            overrides={**FAST, "adversary.placement": "adaptive"},
        )
        serial = SWEEP_ENGINE.run(resolved, workers=1)
        clear_mission_memo()
        clear_artifact_cache()
        sharded = SWEEP_ENGINE.run(resolved, workers=4)
        assert serial.rows() == sharded.rows()

    def test_adaptive_rows_are_pinned(self):
        """Adaptive placement chases the exact set minimum_vertex_cut
        returns; these rows pin that choice end to end."""
        resolved = SWEEP_ENGINE.resolve(
            "detection-under-deception",
            overrides={**FAST, "adversary.placement": "adaptive"},
        )
        rows = SWEEP_ENGINE.run(resolved, workers=1).rows()
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5eb356b7451ecf032691b287d41568c743d987241d9b4b9778d19739fe4b4771"
        )

    def test_detection_latency_is_a_sweepable_metric(self):
        resolved = SWEEP_ENGINE.resolve("detection-under-deception", overrides=FAST)
        figure = SWEEP_ENGINE.run(resolved, workers=1)
        series = {s.name for s in figure.series}
        assert "detection latency (epochs)" in series
        assert "adversary-cut rate" in series

    def test_profile_axis_changes_the_campaign(self):
        resolved = SWEEP_ENGINE.resolve(
            "detection-under-deception",
            overrides={**FAST, "adversary.profile": "sleeper"},
        )
        assert resolved.params["adversary.profile"] == "sleeper"
        sleeper = SWEEP_ENGINE.run(resolved, workers=1)
        assert "sleeper" in sleeper.title
        assert any("profile=sleeper" in note for note in sleeper.notes)
