"""Span tracing around the public entry point of each layer.

Nothing under ``src/`` is instrumented.  At install time every entry
point in :data:`ENTRY_POINTS` is looked up by name and rebound — in its
owning module or class, and in every ``repro`` module that imported a
function by name — to a wrapper that records a span (or only a call
count).  An entry point a later change deletes is reported as
*absent*; one that exists but never fires on a workload it is
predicted to serve is reported as *missing*.  Neither stops the run.

Spans are ``(id, entry, start, end, parent, trial, self_s, outermost)``
tuples kept in memory: ``self_s`` is the duration minus the time its
child spans cover, ``outermost`` is false for a span nested inside a
span of the same entry point (recursion), so inclusive times never
count an interval twice.  All spans of one trial share the trial id
the benchmark sets before the trial starts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

SPAN = "span"
COUNT = "count"

#: The benchmark's one clock, for trials, passes, set-up and spans alike:
#: CPU time of this process.  The workloads are serial and CPU-bound, and
#: on a shared host wall time also counts the time other tenants hold
#: the core, which varies far more between runs than the work does.
CLOCK = time.process_time


@dataclass(frozen=True)
class EntryPoint:
    """One layer boundary: where to wrap it and where it must fire.

    ``targets`` are ``"module:qualname"`` strings; ``fires_on`` lists
    the workloads whose per-layer metrics this entry point is meant to
    move, so silence there is flagged as missing.
    """

    key: str
    targets: tuple[str, ...]
    mode: str = SPAN
    fires_on: tuple[str, ...] = ()


_ALL = ("cost-fig3", "resilience-vd", "detection-mission")

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("fastpath", ("repro.perf.fastpath:try_run_trial",), fires_on=("cost-fig3",)),
    EntryPoint(
        "kappa", ("repro.graphs.connectivity:vertex_connectivity",), fires_on=("resilience-vd",)
    ),
    EntryPoint(
        "maxflow", ("repro.graphs.maxflow:FlowNetwork.max_flow",), fires_on=("resilience-vd",)
    ),
    EntryPoint(
        "scheduler", ("repro.net.simulator:SyncNetwork.run",), fires_on=("detection-mission",)
    ),
    EntryPoint(
        "chain_extend",
        ("repro.crypto.cache:VerificationCache.extend_chain",),
        mode=COUNT,
        fires_on=("detection-mission",),
    ),
    EntryPoint(
        "sign",
        ("repro.crypto.signer:HmacScheme.sign", "repro.crypto.signer:NullScheme.sign"),
        mode=COUNT,
        fires_on=("detection-mission",),
    ),
    EntryPoint(
        "primer", ("repro.crypto.batch:RoundPrimer.__call__",), fires_on=("detection-mission",)
    ),
    EntryPoint("deploy", ("repro.experiments.runner:build_deployment",), fires_on=_ALL),
    EntryPoint(
        "topology",
        (
            "repro.experiments.spec:TopologySpec.build",
            "repro.experiments.spec:TopologySpec.build_scenario",
            "repro.experiments.mission:TrajectorySpec.build",
        ),
        fires_on=("resilience-vd",),
    ),
    EntryPoint("decision", ("repro.core.nectar:NectarNode.conclude",), fires_on=("resilience-vd",)),
    EntryPoint(
        "deliver",
        ("repro.core.nectar:NectarNode.deliver",),
        mode=COUNT,
        # The fastpath takes every resilience-vd trial and never delivers.
        fires_on=("detection-mission",),
    ),
    EntryPoint(
        "baselines",
        ("repro.baselines.mtg:MtgNode.conclude", "repro.baselines.mtgv2:Mtgv2Node.conclude"),
        fires_on=("resilience-vd",),
    ),
    EntryPoint("trial", ("repro.experiments.runner:run_trial",), fires_on=_ALL),
    # Cost trials skip ground truth, so cost-fig3 is not expected here.
    EntryPoint(
        "ground_truth",
        ("repro.experiments.runner:compute_ground_truth",),
        fires_on=("resilience-vd", "detection-mission"),
    ),
    EntryPoint(
        "cell",
        (
            "repro.experiments.spec:execute_trial",
            "repro.experiments.mission:MissionSession.step",
        ),
        fires_on=_ALL,
    ),
)


def _lookup(target: str):
    """``(owner, attribute, original)`` for a target, or None if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attribute)  # only methods the class defines
    else:
        original = getattr(owner, attribute, None)
    if not callable(original):
        return None
    return owner, attribute, original


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def rebind(
    module_name: str, qualname: str, wrap: Callable[[Callable], Callable]
) -> Callable[[], None] | None:
    """Replace an entry point with ``wrap(original)``; returns an undo.

    Module-level functions are also replaced in every loaded ``repro``
    module that bound them by name.  Returns None when the entry point
    does not exist.
    """
    found = _lookup(f"{module_name}:{qualname}")
    if found is None:
        return None
    owner, attribute, original = found
    wrapper = functools.wraps(original)(wrap(original))
    bindings = [(owner, attribute)]
    if not isinstance(owner, type):
        for module in _repro_modules():
            if module is owner:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    bindings.append((module, name))
    for holder, name in bindings:
        setattr(holder, name, wrapper)

    def undo() -> None:
        for holder, name in bindings:
            setattr(holder, name, original)
        if not isinstance(owner, type):
            for module in _repro_modules():  # modules imported while installed
                for name, value in list(vars(module).items()):
                    if value is wrapper:
                        setattr(module, name, original)

    return undo


class Tracer:
    """Records spans and counts at every :data:`ENTRY_POINTS` boundary."""

    def __init__(self) -> None:
        self.entries = ENTRY_POINTS
        self.absent: dict[str, list[str]] = {}
        self.trial: int | None = None
        self._undo: list[Callable[[], None]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (between traced passes)."""
        self.spans: list[tuple] = []
        self.counts = [0] * len(self.entries)
        self.fastpath_taken = 0
        self.rounds_executed = 0
        self.bytes_sent = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self._stack: list[list] = []
        self._depth = [0] * len(self.entries)
        self._next_id = 0

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point that exists; remember the absent ones."""
        self.absent = {}
        observers = {"fastpath": self._observe_fastpath, "trial": self._observe_trial}
        for index, entry in enumerate(self.entries):
            for target in entry.targets:
                module_name, _, qualname = target.partition(":")
                if entry.mode == COUNT:
                    wrap = self._count_wrapper(index)
                else:
                    wrap = self._span_wrapper(index, observers.get(entry.key))
                undo = rebind(module_name, qualname, wrap)
                if undo is None:
                    self.absent.setdefault(entry.key, []).append(target)
                else:
                    self._undo.append(undo)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _count_wrapper(self, index: int):
        def wrap(original):
            def counted(*args, **kwargs):
                self.counts[index] += 1
                return original(*args, **kwargs)

            return counted

        return wrap

    def _span_wrapper(self, index: int, observe):
        clock = CLOCK
        tracer = self

        def wrap(original):
            def traced(*args, **kwargs):
                stack = tracer._stack
                depth = tracer._depth
                span_id = tracer._next_id
                tracer._next_id = span_id + 1
                parent = stack[-1][0] if stack else -1
                frame = [span_id, 0.0]
                stack.append(frame)
                depth[index] += 1
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    depth[index] -= 1
                    duration = end - start
                    if stack:
                        stack[-1][1] += duration
                    tracer.spans.append(
                        (
                            span_id,
                            index,
                            start,
                            end,
                            parent,
                            tracer.trial,
                            duration - frame[1],
                            depth[index] == 0,
                        )
                    )
                if observe is not None:
                    observe(result)
                return result

            return traced

        return wrap

    def _observe_fastpath(self, result) -> None:
        if result is not None:
            self.fastpath_taken += 1

    def _observe_trial(self, result) -> None:
        self.rounds_executed += getattr(result, "rounds_executed", None) or 0
        stats = getattr(result, "stats", None)
        if stats is not None:
            self.bytes_sent += stats.total_bytes_sent()
        cache = getattr(result, "cache_stats", None)
        if cache is not None:
            self.cache_hits += cache.hits()
            self.cache_lookups += cache.total()

    # -- aggregation ---------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per entry point: calls, self seconds, inclusive seconds."""
        table = {
            entry.key: {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0}
            for entry in self.entries
        }
        for _, index, start, end, _, _, self_s, outermost in self.spans:
            row = table[self.entries[index].key]
            row["calls"] += 1
            row["self_s"] += self_s
            if outermost:
                row["inclusive_s"] += end - start
        for index, entry in enumerate(self.entries):
            if entry.mode == COUNT:
                table[entry.key]["calls"] = self.counts[index]
        return table

    def status(self, workload: str, summary: dict) -> dict[str, str]:
        """``ok`` / ``absent`` / ``partly-absent`` / ``missing`` per entry."""
        result = {}
        for entry in self.entries:
            absent = self.absent.get(entry.key, [])
            if len(absent) == len(entry.targets):
                result[entry.key] = "absent"
            elif workload in entry.fires_on and summary[entry.key]["calls"] == 0:
                result[entry.key] = "missing"
            elif absent:
                result[entry.key] = "partly-absent"
            else:
                result[entry.key] = "ok"
        return result

    def span_records(self) -> list[dict]:
        """The recorded spans as JSON-ready records."""
        return [
            {
                "id": span_id,
                "name": self.entries[index].key,
                "start": start,
                "end": end,
                "parent": parent,
                "trial": trial,
                "self_s": self_s,
            }
            for span_id, index, start, end, parent, trial, self_s, _ in self.spans
        ]


def _self(key: str):
    return lambda tracer, summary: summary[key]["self_s"]


def _calls(key: str):
    return lambda tracer, summary: summary[key]["calls"]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


#: per-layer metric -> (entry point it is read at, reader of one traced
#: pass).  Times are self seconds per pass; counts are per pass.
LAYER_METRICS = {
    "perf.fastpath_s": ("fastpath", _self("fastpath")),
    "perf.fastpath_attempts": ("fastpath", _calls("fastpath")),
    "perf.fastpath_taken": ("fastpath", lambda tracer, summary: tracer.fastpath_taken),
    "perf.fastpath_taken_ratio": (
        "fastpath",
        lambda tracer, summary: _ratio(tracer.fastpath_taken, summary["fastpath"]["calls"]),
    ),
    "graphs.kappa_s": ("kappa", _self("kappa")),
    "graphs.kappa_calls": ("kappa", _calls("kappa")),
    "graphs.maxflow_s": ("maxflow", _self("maxflow")),
    "graphs.maxflow_calls": ("maxflow", _calls("maxflow")),
    "net.scheduler_s": ("scheduler", _self("scheduler")),
    "net.rounds_executed": ("trial", lambda tracer, summary: tracer.rounds_executed),
    "net.bytes_sent": ("trial", lambda tracer, summary: tracer.bytes_sent),
    "crypto.chain_extend_calls": ("chain_extend", _calls("chain_extend")),
    "crypto.sign_calls": ("sign", _calls("sign")),
    "crypto.verify_hit_rate": (
        "trial",
        lambda tracer, summary: _ratio(tracer.cache_hits, tracer.cache_lookups),
    ),
    "crypto.primer_s": ("primer", _self("primer")),
    "crypto.primer_calls": ("primer", _calls("primer")),
    "crypto.deploy_s": ("deploy", _self("deploy")),
    "graphs.topology_s": ("topology", _self("topology")),
    "graphs.topology_calls": ("topology", _calls("topology")),
    "core.decision_s": ("decision", _self("decision")),
    "core.decision_calls": ("decision", _calls("decision")),
    "core.deliver_calls": ("deliver", _calls("deliver")),
    "baselines.decision_s": ("baselines", _self("baselines")),
    "experiments.trial_self_s": ("trial", _self("trial")),
    "experiments.ground_truth_s": ("ground_truth", _self("ground_truth")),
    "experiments.cell_self_s": ("cell", _self("cell")),
}


def layer_metrics(tracer: Tracer, summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    return {name: read(tracer, summary) for name, (_, read) in LAYER_METRICS.items()}


#: counts that must repeat exactly between two traced passes of one input.
EXACT_COUNTS = (
    "graphs.maxflow_calls",
    "crypto.sign_calls",
    "crypto.chain_extend_calls",
    "net.bytes_sent",
    "net.rounds_executed",
    "perf.fastpath_taken",
)
