"""The three benchmark workloads: inputs, one timed pass, output checks.

A *pass* executes one workload input end to end — every trial of the
sweep, serially, in this process, with ``workers=1`` semantics — and
assembles the figure rows.  A *trial* is the unit a pass times:

* ``cost-fig3``: one ``fig3`` cell at paper scale (23 cells per pass);
* ``resilience-vd``: one ``connectivity-resilience`` cell (180 per pass);
* ``detection-mission``: one ``MissionSession.step()`` epoch (8 missions
  of 20 epochs per pass); the memo-served measure cells are assembled
  into rows after the missions have flown.

Inputs come from the run seed.  Pass 0 of a run uses the seed itself;
later passes use seeds derived from ``(seed, pass)``, so one run
averages over several topologies while the same seed always replays
the same inputs.  Seed 0 reproduces the rows ``repro figure <id>``
prints on the same axes; ``cost-fig3`` runs deterministic Harary
graphs and ignores the seed.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments.mission import (
    MissionSession,
    clear_mission_memo,
    store_mission_result,
)
from repro.experiments.spec import SWEEP_ENGINE
from repro.experiments import spec as spec_module
from repro.types import Decision, Verdict
from tracing import CLOCK, rebind

DEFAULT_SEED = 0

_SPLIT_FAMILIES = (
    "k-regular",
    "k-pasted-tree",
    "k-diamond",
    "generalized-wheel",
    "multipartite-wheel",
)


def pass_seed(seed: int, index: int) -> int:
    """The input seed of pass ``index`` in a run started with ``seed``."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"perfbench|{seed}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def flat_rows(figure) -> list[list]:
    """Figure rows as ``[series, x, mean, ci_half_width, trials]`` lists."""
    return [
        [series.name, point.x, point.mean, point.ci_half_width, point.trials]
        for series in figure.series
        for point in series.points
    ]


def rows_digest(rows: list[list]) -> str:
    """SHA-256 of the rows, computed exactly as ``repro bench`` does."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    """What one pass produced: per-trial latencies, rows and problems."""

    latencies: list[float] = field(default_factory=list)
    trial_errors: int = 0
    first_error: str | None = None
    rows: list[list] | None = None
    problems: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def digest(self) -> str | None:
        return None if self.rows is None else rows_digest(self.rows)


def _time_trial(result: PassResult, call: Callable[[], object], on_trial) -> object:
    if on_trial is not None:
        on_trial(len(result.latencies))
    started = CLOCK()
    try:
        return call()
    except Exception:  # a failed trial is counted, reported and survived
        result.trial_errors += 1
        if result.first_error is None:
            result.first_error = traceback.format_exc()
        return None
    finally:
        result.latencies.append(CLOCK() - started)


class Workload:
    """One named sweep: how to plan an input, run it, and check it."""

    name: str = ""
    figure_id: str = ""
    seeded: bool = True

    def resolve(self, input_seed: int):
        raise NotImplementedError

    def prepare(self, input_seed: int):
        """Set-up up to the moment the first trial is ready."""
        return SWEEP_ENGINE.prepare(self.resolve(input_seed))

    def first_trial_ready(self, prepared) -> None:
        """Finish any set-up the first trial still needs (set-up probe)."""

    def install_checks(self) -> Callable[[], None]:
        """Install per-trial output checks; returns their undo."""
        return lambda: None

    def run_pass(self, prepared, on_trial=None) -> PassResult:
        """Run every trial of one prepared input; ``on_trial(i)`` precedes trial i."""
        plan, cells = prepared
        result = PassResult()
        execute = spec_module.execute_trial  # looked up per pass: tracing rebinds it
        values = [
            _time_trial(result, lambda cell=cell: execute(cell), on_trial)
            for cell in cells
        ]
        if not result.trial_errors:
            result.rows = flat_rows(SWEEP_ENGINE.assemble(plan, values))
        return result

    def check_rows(self, rows: list[list]) -> list[str]:
        return []

    def finish(self, result: PassResult) -> None:
        """Run the seed-independent output checks on a finished pass."""
        if result.rows is None:
            result.problems.append("rows unavailable: a trial raised")
            return
        if not result.rows:
            result.problems.append("the pass produced no rows")
        result.problems.extend(self.check_rows(result.rows))


class CostFig3(Workload):
    name = "cost-fig3"
    figure_id = "fig3"
    seeded = False

    def resolve(self, input_seed: int):
        return SWEEP_ENGINE.resolve(
            "fig3",
            scale="paper",
            overrides={
                "ns": (20, 40, 60, 80, 100),
                "ks": (2, 10, 18, 26, 34),
                "profile": "ecdsa",
            },
        )

    def check_rows(self, rows):
        problems = []
        series: dict[str, list[tuple[float, float]]] = {}
        for name, x, mean, _, _ in rows:
            series.setdefault(name, []).append((x, mean))
        for name, points in series.items():
            points.sort()
            for (x0, y0), (x1, y1) in zip(points, points[1:]):
                if not y1 > y0:
                    problems.append(
                        f"{name}: KB/node not increasing in n "
                        f"({x0}: {y0} -> {x1}: {y1})"
                    )
        return problems


class ResilienceVD(Workload):
    name = "resilience-vd"
    figure_id = "connectivity-resilience"

    def resolve(self, input_seed: int):
        return SWEEP_ENGINE.resolve(
            "connectivity-resilience",
            scale="reduced",
            overrides={
                "families": _SPLIT_FAMILIES,
                "n": 24,
                "k": 6,
                "ts": (1, 2, 3, 4),
                "trials": 3,
            },
            # Seed 0 keeps the figure's own index seeds (0, 1, 2), which
            # is what ``repro figure connectivity-resilience`` runs.
            seed_mode="hashed" if input_seed else None,
            base_seed=input_seed,
        )

    def check_rows(self, rows):
        return [
            f"{name} t={x}: NECTAR accuracy {mean} != 1.0"
            for name, x, mean, _, _ in rows
            if name.startswith("Nectar") and mean != 1.0
        ]


class DetectionMission(Workload):
    name = "detection-mission"
    figure_id = "partition-detection"

    def __init__(self) -> None:
        self._verdict_problems: list[str] = []
        self._epoch_trials = 0

    def resolve(self, input_seed: int):
        return SWEEP_ENGINE.resolve(
            "partition-detection",
            scale="reduced",
            overrides={
                "n": 12,
                "t": 2,
                "radius": 1.8,
                "start": 0.0,
                "drifts": (0.5, 1.0),
                "trials": 4,
                "epochs": 20,
                "trajectory": "drifting-scatters",
            },
            base_seed=input_seed,
        )

    def prepare(self, input_seed: int):
        plan, cells = super().prepare(input_seed)
        return plan, cells, list(dict.fromkeys(cell.mission for cell in cells))

    def first_trial_ready(self, prepared) -> None:
        MissionSession(prepared[2][0])

    def install_checks(self) -> Callable[[], None]:
        """Read every epoch's trial result through ``runner.run_trial``.

        The wrapper is rebound wherever the function was imported by
        name; without it the verdict check cannot run.
        """

        def wrap(original):
            def run_trial(graph, *args, **kwargs):
                result = original(graph, *args, **kwargs)
                self.observe_trial(graph, result)
                return result

            return run_trial

        undo = rebind("repro.experiments.runner", "run_trial", wrap)
        if undo is None:
            raise RuntimeError("runner.run_trial is gone: the verdict check cannot run")
        return undo

    def observe_trial(self, graph, result) -> None:
        """Output check: every correct node of an epoch reached a verdict."""
        self._epoch_trials += 1
        silent = [
            node
            for node in graph.nodes()
            if node not in result.byzantine
            and not (
                isinstance(result.verdicts.get(node), Verdict)
                and isinstance(result.verdicts[node].decision, Decision)
            )
        ]
        if silent:
            self._verdict_problems.append(
                f"epoch trial {self._epoch_trials}: correct nodes {silent} have no verdict"
            )

    def run_pass(self, prepared, on_trial=None) -> PassResult:
        plan, cells, missions = prepared
        result = PassResult()
        self._verdict_problems = []
        self._epoch_trials = 0
        clear_mission_memo()
        for index, mission in enumerate(missions):
            session = MissionSession(mission)
            while not session.done:
                before = result.trial_errors
                report = _time_trial(result, session.step, on_trial)
                if result.trial_errors != before:
                    break
                if not isinstance(report.verdict, Verdict):
                    result.problems.append(
                        f"mission {index} epoch {report.epoch}: no verdict"
                    )
            if session.done:
                store_mission_result(mission, session.result())
        if not result.trial_errors:
            execute = spec_module.execute_trial
            values = [execute(cell) for cell in cells]
            result.rows = flat_rows(SWEEP_ENGINE.assemble(plan, values))
        clear_mission_memo()
        if self._epoch_trials != len(result.latencies):
            result.problems.append(
                f"{len(result.latencies)} epochs stepped but "
                f"{self._epoch_trials} epoch trials observed"
            )
        result.problems.extend(self._verdict_problems)
        return result


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (CostFig3(), ResilienceVD(), DetectionMission())
}


__all__ = [
    "DEFAULT_SEED",
    "PassResult",
    "WORKLOADS",
    "Workload",
    "flat_rows",
    "pass_seed",
    "rows_digest",
]
