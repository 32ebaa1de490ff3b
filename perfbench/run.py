"""Repository benchmark: three paper workloads timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cost-fig3 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``cost-fig3``, ``resilience-vd``, ``detection-mission``.  Each run is
one serial process.  It first times a few fresh-process set-ups, then
runs one untimed warm-up pass, then timed passes until ``--seconds``
of wall time have passed since the run began (at least ``MIN_PASSES``).  Every
pass is output-checked; a failed trial or check makes the run exit 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead
alternates untraced and traced passes of the seed's input, wraps each
layer's entry point (``tracing.py``), and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, including spans of the last traced pass, is written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import CLOCK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("cost-fig3", "resilience-vd", "detection-mission")
#: timed passes per run whatever ``--seconds`` says; fixes the tail percentile.
MIN_PASSES = 5
#: fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: traced passes per traced run, at least (the exact-count rule needs two).
MIN_TRACED = 2
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 < pct < 100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least 10 of ``samples`` beyond it."""
    chosen = PERCENTILES[0]
    for pct in PERCENTILES:
        if samples * (100.0 - pct) / 100.0 >= 10:
            chosen = pct
    return chosen


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    from repro import perf

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "perf": perf.provenance() if hasattr(perf, "provenance") else None,
        "REPRO_NO_NUMPY": os.environ.get("REPRO_NO_NUMPY"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------
def setup_probe(args: argparse.Namespace) -> int:
    """Child process: import, resolve and plan; print the elapsed time."""
    started = CLOCK()
    from workloads import WORKLOADS, pass_seed

    workload = WORKLOADS[args.workload]
    prepared = workload.prepare(pass_seed(args.seed, 0))
    workload.first_trial_ready(prepared)
    print(json.dumps({"setup_s": CLOCK() - started}))
    return 0


def measure_setup(args: argparse.Namespace) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--setup-probe",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(ROOT),
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class Run:
    """Bookkeeping shared by both run modes: passes, checks, failures."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = json.loads((HERE / "reference.json").read_text())[workload.name]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.first_error: str | None = None

    def execute(self, index: int, tracer=None):
        """Prepare (untimed) and run (timed) pass ``index``; check it."""
        from workloads import DEFAULT_SEED, pass_seed

        input_seed = pass_seed(self.seed, index) if self.workload.seeded else DEFAULT_SEED
        prepared = self.workload.prepare(input_seed)
        if tracer is not None:
            tracer.reset()
            tracer.install()
        started, wall_started = CLOCK(), time.perf_counter()
        on_trial = None if tracer is None else lambda trial: setattr(tracer, "trial", trial)
        try:
            result = self.workload.run_pass(prepared, on_trial)
        finally:
            elapsed, wall = CLOCK() - started, time.perf_counter() - wall_started
            if tracer is not None:
                tracer.uninstall()
        result.cpu_s, result.wall_s = elapsed, wall
        self.workload.finish(result)
        digest = result.digest
        if digest is not None:
            if input_seed == self.reference["seed"] and digest != self.reference["rows_sha256"]:
                result.problems.append(
                    f"rows sha256 {digest[:12]} != reference "
                    f"{self.reference['rows_sha256'][:12]} (seed {input_seed})"
                )
            expected = self.digests.setdefault(input_seed, digest)
            if digest != expected:
                result.problems.append(
                    f"rows of seed {input_seed} changed between passes "
                    f"({expected[:12]} -> {digest[:12]})"
                )
        if result.first_error is not None and self.first_error is None:
            self.first_error = result.first_error
            sys.stderr.write(result.first_error)
        self.attempted += len(result.latencies)
        self.failed += result.trial_errors + len(result.problems)
        self.problems.extend(result.problems)
        return result

    def note(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def run_untraced(args, run: Run) -> tuple[dict, dict]:
    deadline = time.perf_counter() + args.seconds  # set-up and warm-up count too
    setup_times = measure_setup(args)
    run.execute(0)  # warm-up: lazy imports and first-touch caches
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run.execute(len(passes)))
    timed = sum(result.cpu_s for result in passes)
    latencies_ms = [1000.0 * value for result in passes for value in result.latencies]
    trials = len(latencies_ms)
    tail_pct = tail_percentile(MIN_PASSES * len(passes[0].latencies))
    metrics = {
        "trials_per_s": statistics.median(
            len(result.latencies) / result.cpu_s for result in passes
        ),
        "trial_ms_p50": statistics.median(latencies_ms),
        "trial_ms_tail": percentile(latencies_ms, tail_pct),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "passes": len(passes),
        "trials": trials,
        "timed_cpu_s": timed,
        "pass_cpu_s": [result.cpu_s for result in passes],
        "pass_wall_s": [result.wall_s for result in passes],
        "tail_percentile": tail_pct,
        "tail_beyond": trials * (100.0 - tail_pct) / 100.0,
        "setup_probe_s": setup_times,
    }
    return metrics, details


def run_traced(args, run: Run) -> tuple[dict, dict]:
    from tracing import EXACT_COUNTS, LAYER_METRICS, Tracer, layer_metrics

    deadline = time.perf_counter() + args.seconds
    run.execute(0)  # warm-up: every lazily imported module is loaded before wrapping
    tracer = Tracer()
    untraced_cpu, traced_cpu, per_pass, inclusive = [], [], [], []
    statuses: dict[str, str] = {}
    spans: list[dict] = []
    while len(traced_cpu) < MIN_TRACED or time.perf_counter() < deadline:
        if len(traced_cpu) % 2:  # alternate which side runs first
            traced = run.execute(0, tracer=tracer)
            plain = run.execute(0)
        else:
            plain = run.execute(0)
            traced = run.execute(0, tracer=tracer)
        untraced_cpu.append(plain.cpu_s)
        traced_cpu.append(traced.cpu_s)
        summary = tracer.summary()
        per_pass.append(layer_metrics(tracer, summary))
        inclusive.append({key: row["inclusive_s"] for key, row in summary.items()})
        statuses = tracer.status(run.workload.name, summary)
        spans = tracer.span_records()
    first = per_pass[0]
    for other in per_pass[1:]:
        for name in EXACT_COUNTS:
            if other[name] != first[name]:
                run.note(f"{name} differs between traced passes: {first[name]} vs {other[name]}")
    metrics = {}
    for name in first:
        values = [sample[name] for sample in per_pass]
        metrics[name] = statistics.median(values) if name.endswith("_s") else values[0]
    metrics["trace_overhead"] = statistics.median(traced_cpu) / statistics.median(untraced_cpu)
    layer_status = {name: statuses[entry] for name, (entry, _) in LAYER_METRICS.items()}
    details = {
        "traced_passes": len(traced_cpu),
        "untraced_cpu_s": untraced_cpu,
        "traced_cpu_s": traced_cpu,
        "entry_status": statuses,
        "absent_targets": tracer.absent,
        "metric_status": layer_status,
        "inclusive_s": {
            key: statistics.median(sample[key] for sample in inclusive) for key in inclusive[0]
        },
        "layer_self_s": _layer_self(metrics),
        "spans_of_last_traced_pass": spans,
    }
    return metrics, details


#: entry points that enclose whole trials, so they always lead by inclusive time.
_ENCLOSING = ("cell", "trial")


def _layer_self(metrics: dict) -> dict[str, float]:
    layers: dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith("_s") and "." in name:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + value
    return layers


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


def print_table(workload, args, metrics: dict, units: dict, details: dict, run: Run, prov: dict) -> None:
    seed_note = "" if workload.seeded else " (unseeded: deterministic Harary graphs)"
    print(f"workload {workload.name}  figure {workload.figure_id}  seed {args.seed}{seed_note}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    status = details.get("metric_status", {})
    for name, unit in units.items():
        value = metrics[name]
        extra = ""
        if name == "trial_ms_tail":
            extra = (
                f"  (p{details['tail_percentile']:g} of {details['trials']} trials, "
                f"{details['tail_beyond']:.0f} beyond)"
            )
        flag = status.get(name, "ok")
        if flag != "ok":
            extra += f"  [{flag.upper()}]"
        print(f"  {name:<28} {value:>14.6g} {unit:<6}{extra}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'failed_ratio':<28} {ratio:>14.6g} ratio  ({run.failed} of {run.attempted})")
    if "layer_self_s" in details:
        layers = details["layer_self_s"]
        largest = max(layers, key=layers.get)
        inclusive = details["inclusive_s"]
        print(f"  largest layer by self time: {largest} ({layers[largest]:.4f} s per pass)")
        inner = {key: value for key, value in inclusive.items() if key not in _ENCLOSING}
        widest = max(inner, key=inner.get)
        print(
            f"  largest entry point inside a trial by inclusive time: {widest} "
            f"({inner[widest]:.4f} s per pass)"
        )
        print(
            "  inclusive s per pass: "
            + ", ".join(f"{key}={value:.4f}" for key, value in inclusive.items() if value)
        )
    for problem in run.problems[:20]:
        print(f"  FAILED CHECK: {problem}")


def run_one(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed)
    undo = workload.install_checks()
    try:
        if args.trace:
            metrics, details = run_traced(args, run)
        else:
            metrics, details = run_untraced(args, run)
    finally:
        undo()
    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")
    prov = provenance()
    print_table(workload, args, metrics, units, details, run, prov)
    record = {
        "workload": workload.name,
        "figure": workload.figure_id,
        "seed": args.seed,
        "seeded": workload.seeded,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": prov,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "failed_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "problems": run.problems,
        "details": details,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, cwd=str(ROOT))
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: benchmark process failed (exit {done.returncode})", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
