"""Tests for the ``repro bench`` perf-ledger harness and the
artefact-directory diff it reuses (DESIGN.md §9.3)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.artifacts import clear_artifact_cache
from repro.experiments.bench import (
    BENCH_SCENARIOS,
    BENCH_SCHEMA,
    BenchScenario,
    compare_ledgers,
    ledger_file_diff,
    ledger_path,
    load_ledger,
    run_scenario,
    write_ledger,
)
from repro.experiments.diff import diff_artefact_directories
from repro.experiments.persistence import dump_figure_json
from repro.experiments.report import FigureData
from repro.experiments.spec import SWEEP_ENGINE

#: a scenario small enough for unit tests (sub-second per mode).
TINY = BenchScenario(
    name="tiny",
    title="unit-test scenario",
    figure_id="fig3",
    overrides={"ns": (8,), "ks": (2,)},
    smoke_overrides={"ns": (8,), "ks": (2,)},
    # A millisecond-scale run's speedup ratio is pure scheduler noise;
    # these tests exercise row digests and tamper detection, not the
    # gate, so gating would only make them flaky.
    gate_speedup=False,
)


@pytest.fixture(autouse=True)
def _cold_artifacts():
    clear_artifact_cache()
    yield
    clear_artifact_cache()


class TestLedger:
    def test_ledger_shape_and_equivalence(self, tmp_path):
        ledger = run_scenario(TINY, smoke=True)
        assert ledger["schema"] == BENCH_SCHEMA
        assert ledger["scenario"] == "tiny"
        assert ledger["scale"] == "smoke"
        assert ledger["cells"] == 1
        assert ledger["rows_equal"] is True
        assert ledger["speedup"] > 0
        assert set(ledger["wall_s"]) == {"artifacts_off", "artifacts_on"}
        assert ledger["artifact_stats"]["topology"]["misses"] >= 1
        assert ledger["probe"]["rounds"] == 7  # n - 1 on the 8-node cell
        assert ledger["probe"]["total_bytes_sent"] > 0
        path = write_ledger(ledger, tmp_path)
        assert path == ledger_path(tmp_path, "tiny")
        assert load_ledger(path) == ledger

    def test_probe_hit_rate_is_null_without_lookups(self):
        """A cost probe in ACCOUNTING mode never consults the cache, so
        its hit rate is unknown, not 0.0; FULL validation measures one."""
        assert run_scenario(TINY, smoke=True)["probe"]["verification_hit_rate"] is None
        full = BenchScenario(
            name="tiny-full",
            title="unit-test scenario, FULL validation",
            figure_id="fig3",
            overrides=TINY.overrides,
            smoke_overrides=TINY.smoke_overrides,
            env={"validation": "full"},
            gate_speedup=False,
        )
        rate = run_scenario(full, smoke=True)["probe"]["verification_hit_rate"]
        assert 0.0 < rate < 1.0

    def test_rows_digest_is_deterministic(self):
        first = run_scenario(TINY, smoke=True)
        second = run_scenario(TINY, smoke=True)
        assert first["rows_sha256"] == second["rows_sha256"]
        assert first["rows"] == second["rows"]

    def test_registered_scenarios_resolve(self):
        """Every registry entry must resolve at both scales (axis names
        and env fields are validated eagerly by the sweep engine)."""
        for scenario in BENCH_SCENARIOS.values():
            for overrides in (scenario.overrides, scenario.smoke_overrides):
                env = {f"env.{k}": v for k, v in scenario.env.items()}
                SWEEP_ENGINE.resolve(
                    scenario.figure_id,
                    scale="reduced",
                    overrides={**overrides, **env},
                )

    def test_load_ledger_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(ExperimentError):
            load_ledger(path)


class TestCompare:
    def _ledger(self, **overrides):
        base = {
            "schema": BENCH_SCHEMA,
            "scenario": "tiny",
            "scale": "smoke",
            "rows_equal": True,
            "rows_sha256": "abc",
            "speedup": 2.5,
            "gate_speedup": True,
        }
        base.update(overrides)
        return base

    def test_identical_ledgers_pass(self):
        assert compare_ledgers(self._ledger(), self._ledger()) == []

    def test_row_digest_drift_fails(self):
        problems = compare_ledgers(
            self._ledger(), self._ledger(rows_sha256="def")
        )
        assert any("rows diverged" in p for p in problems)

    def test_broken_equivalence_fails(self):
        problems = compare_ledgers(self._ledger(), self._ledger(rows_equal=False))
        assert any("equivalence broken" in p for p in problems)

    def test_speedup_regression_fails_beyond_tolerance(self):
        problems = compare_ledgers(
            self._ledger(), self._ledger(speedup=1.5), tolerance=0.2
        )
        assert any("speedup regressed" in p for p in problems)
        # Within tolerance: 2.1 >= 2.5 * 0.8
        assert (
            compare_ledgers(self._ledger(), self._ledger(speedup=2.1), tolerance=0.2)
            == []
        )

    def test_noise_floor_skips_the_gate(self):
        baseline = self._ledger(speedup=1.1)
        assert compare_ledgers(baseline, self._ledger(speedup=0.9)) == []

    def test_ungated_scenarios_skip_the_gate(self):
        baseline = self._ledger(gate_speedup=False)
        assert compare_ledgers(baseline, self._ledger(speedup=1.0)) == []

    def test_scenario_mismatch_fails(self):
        problems = compare_ledgers(self._ledger(), self._ledger(scenario="other"))
        assert any("scenario mismatch" in p for p in problems)

    def test_scale_mismatch_fails(self):
        problems = compare_ledgers(self._ledger(), self._ledger(scale="full"))
        assert any("scale mismatch" in p for p in problems)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ExperimentError):
            compare_ledgers(self._ledger(), self._ledger(), tolerance=-0.1)


class TestDirectoryDiff:
    def _write_figure(self, directory, name, mean):
        figure = FigureData(
            figure_id="fig3", title="t", x_label="n", y_label="kb"
        )
        figure.series_named("s").add(1.0, [mean])
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(dump_figure_json(figure))

    def test_identical_directories(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 1.0)
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert not diff.diverged
        assert diff.files_compared == 1

    def test_row_divergence_detected(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 2.0)
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert diff.diverged
        assert "DIVERGED" in diff.describe()

    def test_missing_files_diverge(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "a", "only-a.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 1.0)
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert diff.diverged
        assert diff.missing_right == ["only-a.json"]

    def test_truncated_artefact_counts_as_divergence(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "fig3.json").write_text('{"schema": 1, "figure_id"')
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert diff.diverged
        assert "unreadable artefact" in diff.describe()
        assert diff.skipped == []

    def test_foreign_json_skipped_not_failed(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 1.0)
        (tmp_path / "a" / "notes.json").write_text('{"foo": 1}')
        (tmp_path / "b" / "notes.json").write_text('{"foo": 2}')
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert not diff.diverged
        assert diff.skipped == ["notes.json"]

    def test_file_path_rejected(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        with pytest.raises(ExperimentError):
            diff_artefact_directories(tmp_path / "a" / "fig3.json", tmp_path / "a")

    def test_ledger_aware_comparator(self, tmp_path):
        ledger = run_scenario(TINY, smoke=True)
        for side in ("a", "b"):
            write_ledger(ledger, tmp_path / side)
            self._write_figure(tmp_path / side, "fig3.json", 1.0)
        diff = diff_artefact_directories(
            tmp_path / "a", tmp_path / "b", tolerance=0.2, file_diff=ledger_file_diff
        )
        assert not diff.diverged
        assert diff.files_compared == 2
        # Tamper with the candidate's rows digest: the ledger entry
        # must now diverge through the same directory walk.
        tampered = dict(ledger, rows_sha256="0" * 64)
        write_ledger(tampered, tmp_path / "b")
        diff = diff_artefact_directories(
            tmp_path / "a", tmp_path / "b", tolerance=0.2, file_diff=ledger_file_diff
        )
        assert diff.diverged


class TestBenchCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in BENCH_SCENARIOS:
            assert name in out

    def test_unknown_scenario(self, capsys):
        assert main(["bench", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

    def test_smoke_run_writes_ledger_and_compares(self, tmp_path, capsys,
                                                  monkeypatch):
        # Register a tiny scenario so the CLI path stays fast.
        monkeypatch.setitem(BENCH_SCENARIOS, "tiny", TINY)
        out_dir = tmp_path / "out"
        assert main(["bench", "tiny", "--smoke", "--out", str(out_dir)]) == 0
        ledger_file = out_dir / "BENCH_tiny.json"
        assert ledger_file.exists()
        capsys.readouterr()
        # Comparing against itself passes...
        assert main(
            ["bench", "tiny", "--smoke", "--out", str(tmp_path / "fresh"),
             "--compare", str(out_dir)]
        ) == 0
        assert "compare: ok" in capsys.readouterr().out
        # ...while a tampered baseline digest fails with exit 1.
        payload = json.loads(ledger_file.read_text())
        payload["rows_sha256"] = "0" * 64
        ledger_file.write_text(json.dumps(payload))
        assert main(
            ["bench", "tiny", "--smoke", "--out", str(tmp_path / "fresh2"),
             "--compare", str(out_dir)]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_baseline_is_skipped(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(BENCH_SCENARIOS, "tiny", TINY)
        assert main(
            ["bench", "tiny", "--smoke", "--out", str(tmp_path / "out"),
             "--compare", str(tmp_path / "nowhere")]
        ) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_diff_cli_on_directories(self, tmp_path, capsys):
        ledger = run_scenario(TINY, smoke=True)
        write_ledger(ledger, tmp_path / "a")
        write_ledger(ledger, tmp_path / "b")
        assert main(
            ["diff", str(tmp_path / "a"), str(tmp_path / "b"), "--tolerance", "0.2"]
        ) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["diff", str(tmp_path / "a"), str(tmp_path / "a" / "x")]) == 2
