"""Tests for the process-pool experiment engine."""

import json
from pathlib import Path

import pytest

from repro.analysis.engine import (
    MANIFEST_FILENAME,
    RESULTS_FILENAME,
    TaskResult,
    TaskSpec,
    load_results,
    resolve_runner,
    run_grid,
    task_key,
)
from repro.geometry.cache import PERF


# ---------------------------------------------------------------------------
# Module-level cell functions (must be picklable for pool workers).


def square_cell(*, x, out_dir=None):
    """Pure cell; optionally leaves one marker file per execution."""
    if out_dir is not None:
        (Path(out_dir) / f"ran-{x}").touch()
    return {"x": x, "square": x * x}


def failing_cell(*, x):
    if x == 2:
        raise ValueError(f"cell exploded at x={x}")
    return {"x": x}


def counting_cell(*, x):
    """Pure cell that does ``x`` units of counted work."""
    PERF.lp_solves += x
    return {"x": x}


def grid(xs, fn=square_cell, **extra):
    return [
        TaskSpec(key=task_key(x=x), runner=fn, params={"x": x, **extra})
        for x in xs
    ]


# ---------------------------------------------------------------------------


class TestTaskKey:
    def test_order_independent(self):
        assert task_key(b=2, a=1) == task_key(a=1, b=2)

    def test_distinct_for_distinct_params(self):
        keys = {task_key(scenario="s", seed=i) for i in range(10)}
        assert len(keys) == 10

    def test_nested_values_canonical(self):
        assert task_key(kw={"n": 9, "f": 2}) == task_key(kw={"f": 2, "n": 9})

    def test_float_repr_roundtrip(self):
        assert "0.1" in task_key(eps=0.1)


class TestResolveRunner:
    def test_callable_passthrough(self):
        assert resolve_runner(square_cell) is square_cell

    def test_dotted_path(self):
        fn = resolve_runner("repro.analysis.sweeps:scenario_cell")
        assert callable(fn)

    def test_bad_reference_rejected(self):
        with pytest.raises(ValueError):
            resolve_runner("no-colon-here")


class TestSequential:
    def test_grid_order_and_rows(self):
        report = run_grid(grid([3, 1, 2]), workers=1)
        assert [r.row["x"] for r in report.results] == [3, 1, 2]
        assert report.rows() == [
            {"x": 3, "square": 9},
            {"x": 1, "square": 1},
            {"x": 2, "square": 4},
        ]
        assert report.executed == 3 and report.reused == 0

    def test_duplicate_keys_rejected(self):
        tasks = grid([1]) + grid([1])
        with pytest.raises(ValueError, match="duplicate"):
            run_grid(tasks)

    def test_failure_isolated_with_traceback(self):
        report = run_grid(grid([1, 2, 3], fn=failing_cell), workers=1)
        statuses = [r.status for r in report.results]
        assert statuses == ["ok", "error", "ok"]
        failed = report.results[1]
        assert "ValueError" in failed.error
        assert "cell exploded" in failed.traceback
        assert report.failed == 1
        assert len(report.rows()) == 2  # failed cell contributes no row


class TestParallel:
    def test_worker_count_invariance(self):
        xs = list(range(8))
        seq = run_grid(grid(xs), workers=1)
        par = run_grid(grid(xs), workers=2)
        assert json.dumps([r.row for r in seq.results], sort_keys=True) == (
            json.dumps([r.row for r in par.results], sort_keys=True)
        )
        assert [r.status for r in seq.results] == [
            r.status for r in par.results
        ]

    def test_parallel_failure_isolated(self):
        report = run_grid(grid([1, 2, 3, 4], fn=failing_cell), workers=2)
        by_x = {r.params["x"]: r for r in report.results}
        assert not by_x[2].ok and "ValueError" in by_x[2].error
        assert all(by_x[x].ok for x in (1, 3, 4))

    def test_parallel_counters_merged(self):
        # square_cell does no geometry, so merged counters must be all-zero
        # (the merge path itself is exercised either way).
        report = run_grid(grid(range(4)), workers=2)
        assert all(value == 0 for value in report.counters.values())


class TestCheckpointResume:
    def test_journal_written_per_cell(self, tmp_path):
        run_grid(grid([1, 2, 3]), workers=1, run_dir=tmp_path)
        lines = (tmp_path / RESULTS_FILENAME).read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            entry = json.loads(line)
            assert entry["status"] == "ok"
        manifest = json.loads((tmp_path / MANIFEST_FILENAME).read_text())
        assert manifest["cells"] == 3

    def test_resume_skips_completed_cells(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        run_dir = tmp_path / "run"
        run_grid(
            grid([1, 2], out_dir=str(marker_dir)), run_dir=run_dir
        )
        assert len(list(marker_dir.iterdir())) == 2
        # Resume a *larger* grid: only the two new cells may execute.
        report = run_grid(
            grid([1, 2, 3, 4], out_dir=str(marker_dir)),
            run_dir=run_dir,
            resume=True,
        )
        assert report.reused == 2 and report.executed == 2
        assert sorted(p.name for p in marker_dir.iterdir()) == [
            "ran-1",
            "ran-2",
            "ran-3",
            "ran-4",
        ]
        cached = [r.cached for r in report.results]
        assert cached == [True, True, False, False]
        # Rows are complete and grid-ordered despite the mixed provenance.
        assert [r.row["x"] for r in report.results] == [1, 2, 3, 4]

    def test_resume_reruns_failed_cells(self, tmp_path):
        run_dir = tmp_path / "run"
        first = run_grid(
            grid([1, 2, 3], fn=failing_cell), run_dir=run_dir
        )
        assert first.failed == 1
        # flaky-style recovery: swap in a runner that now succeeds.
        report = run_grid(grid([1, 2, 3]), run_dir=run_dir, resume=True)
        assert report.reused == 2 and report.executed == 1
        assert all(r.ok for r in report.results)

    def test_resume_rows_identical_to_fresh(self, tmp_path):
        xs = list(range(5))
        fresh = run_grid(grid(xs), workers=1)
        run_dir = tmp_path / "run"
        run_grid(grid(xs[:3]), run_dir=run_dir)
        resumed = run_grid(grid(xs), run_dir=run_dir, resume=True, workers=2)
        assert json.dumps([r.row for r in fresh.results], sort_keys=True) == (
            json.dumps([r.row for r in resumed.results], sort_keys=True)
        )

    def test_truncated_journal_line_tolerated(self, tmp_path):
        run_grid(grid([1, 2]), run_dir=tmp_path)
        path = tmp_path / RESULTS_FILENAME
        path.write_text(path.read_text() + '{"key": "x=3", "stat')  # killed mid-write
        loaded = load_results(tmp_path)
        assert set(loaded) == {task_key(x=1), task_key(x=2)}
        # The next entry must not be appended onto the torn line, or both
        # fail to parse and the completed cell is lost to the next resume.
        resumed = run_grid(grid([1, 2, 3]), run_dir=tmp_path, resume=True)
        assert resumed.executed == 1
        assert set(load_results(tmp_path)) == {task_key(x=x) for x in (1, 2, 3)}
        again = run_grid(grid([1, 2, 3]), run_dir=tmp_path, resume=True)
        assert again.executed == 0 and again.reused == 3

    def test_last_journal_entry_wins(self, tmp_path):
        path = tmp_path / RESULTS_FILENAME
        older = TaskResult(key="k", status="error", error="boom")
        newer = TaskResult(key="k", status="ok", row={"v": 1})
        path.write_text(
            json.dumps(older.to_json_dict())
            + "\n"
            + json.dumps(newer.to_json_dict())
            + "\n"
        )
        loaded = load_results(tmp_path)
        assert loaded["k"].ok and loaded["k"].row == {"v": 1}

    def test_older_journal_line_resumes(self, tmp_path):
        # An entry written before the engine dropped retries: its
        # ``attempts`` and ``retry_delays`` keys and the old counter names
        # are ignored, and the cell is reused as it stands.
        (tmp_path / RESULTS_FILENAME).write_text(
            '{"attempts": 2, "counters": {"lp_solves": 0, '
            '"shared_cache_hits_foreign": 1, "shared_cache_misses": 0}, '
            '"error": null, "key": "x=7", "params": {"x": 7}, '
            '"retry_delays": [0.00618697455710676], '
            '"row": {"square": 49, "x": 7}, "seconds": 0.0072, '
            '"status": "ok", "traceback": null}\n'
        )
        resumed = run_grid(grid([7]), run_dir=tmp_path, resume=True)
        assert resumed.executed == 0 and resumed.reused == 1
        assert resumed.rows() == run_grid(grid([7])).rows()


class TestResumedWorkNotCounted:
    """Counters and cell time belong to the invocation that ran the cells."""

    def test_full_resume_reports_no_work(self, tmp_path):
        first = run_grid(grid([1, 2], fn=counting_cell), run_dir=tmp_path)
        assert first.counters["lp_solves"] == 3
        resumed = run_grid(
            grid([1, 2], fn=counting_cell), run_dir=tmp_path, resume=True
        )
        assert resumed.executed == 0
        assert resumed.counters == {name: 0 for name in PERF.as_dict()}
        assert resumed.cell_seconds == 0

    def test_partial_resume_counts_executed_cells_only(self, tmp_path):
        run_grid(grid([1, 2], fn=counting_cell), run_dir=tmp_path)
        resumed = run_grid(
            grid([1, 2, 4], fn=counting_cell), run_dir=tmp_path, resume=True
        )
        ran = [r for r in resumed.results if not r.cached]
        assert [r.key for r in ran] == [task_key(x=4)]
        assert resumed.counters["lp_solves"] == 4
        assert resumed.counters == ran[0].counters
        assert resumed.cell_seconds == ran[0].seconds
