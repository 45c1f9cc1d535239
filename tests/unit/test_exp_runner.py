"""Tests for the process-parallel experiment runner: ordering, caching,
early-stop semantics, progress reporting, crash retry and borrowed
(long-lived) worker pools.

The crash tests inject module-level executor functions (picklable by
reference) and force the ``fork`` start method so workers inherit this
already-imported module; they are skipped where fork is unavailable.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.exp.cache import ResultCache
from repro.exp.runner import ExperimentRunner, WorkerCrashError

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _double(spec):
    return {"i": spec["i"], "value": spec["i"] * 2}


def _crash_once(spec):
    """Kill the worker on the first attempt per point, succeed after."""
    sentinel = Path(spec["crash_dir"]) / f"point{spec['i']}"
    if not sentinel.exists():
        sentinel.write_text("crashed")
        os._exit(13)
    return _double(spec)


def _always_crash(spec):
    os._exit(13)


def _pid(spec):
    return {"i": spec["i"], "pid": os.getpid()}


def fork_pool(workers=2):
    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _fail_deterministically(spec):
    raise ValueError(f"bad spec {spec['i']}")


def specs(n, **extra):
    return [{"kind": "test", "i": i, **extra} for i in range(n)]


class TestSerial:
    def test_results_in_submission_order(self):
        runner = ExperimentRunner(jobs=1, execute=_double)
        assert [r["value"] for r in runner.run(specs(4))] == [0, 2, 4, 6]
        assert runner.stats.executed == 4

    def test_empty_spec_list(self):
        assert ExperimentRunner(jobs=1, execute=_double).run([]) == []

    def test_stop_after_truncates_and_skips(self):
        runner = ExperimentRunner(jobs=1, execute=_double)
        results = runner.run(specs(5), stop_after=lambda r: r["value"] >= 4)
        assert [r["value"] for r in results] == [0, 2, 4]
        assert runner.stats.executed == 3
        assert runner.stats.skipped == 2

    def test_deterministic_exception_propagates(self):
        runner = ExperimentRunner(jobs=1, execute=_fail_deterministically)
        with pytest.raises(ValueError, match="bad spec 0"):
            runner.run(specs(2))

    def test_cache_round_trip(self, tmp_path):
        cold = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path), execute=_double)
        first = cold.run(specs(3))
        assert cold.stats.executed == 3
        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path), execute=_double)
        assert warm.run(specs(3)) == first
        assert warm.stats.executed == 0
        assert warm.stats.cached == 3

    def test_cache_key_distinguishes_specs(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path), execute=_double)
        runner.run(specs(2))
        runner.run(specs(2, variant="other"))
        assert runner.stats.executed == 4

    def test_progress_callback(self):
        seen = []
        runner = ExperimentRunner(
            jobs=1,
            execute=_double,
            progress=lambda done, total, label, source: seen.append(
                (done, total, source)
            ),
        )
        runner.run(specs(2))
        assert seen == [(1, 2, "run"), (2, 2, "run")]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ExperimentRunner(jobs=0)
        with pytest.raises(ValueError):
            ExperimentRunner(retries=-1)


@needs_fork
class TestParallel:
    def test_results_in_submission_order(self):
        runner = ExperimentRunner(jobs=2, execute=_double, mp_context="fork")
        assert [r["value"] for r in runner.run(specs(5))] == [0, 2, 4, 6, 8]
        assert runner.stats.executed == 5

    def test_stop_after_matches_serial_series(self):
        serial = ExperimentRunner(jobs=1, execute=_double)
        parallel = ExperimentRunner(jobs=2, execute=_double, mp_context="fork")
        predicate = lambda r: r["value"] >= 4  # noqa: E731
        assert serial.run(specs(5), stop_after=predicate) == parallel.run(
            specs(5), stop_after=predicate
        )

    def test_parallel_fills_cache_serial_reads_it(self, tmp_path):
        parallel = ExperimentRunner(
            jobs=2, cache=ResultCache(tmp_path), execute=_double, mp_context="fork"
        )
        first = parallel.run(specs(4))
        warm = ExperimentRunner(jobs=1, cache=ResultCache(tmp_path), execute=_double)
        assert warm.run(specs(4)) == first
        assert warm.stats.executed == 0

    def test_worker_crash_is_retried(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, execute=_crash_once, retries=2, mp_context="fork"
        )
        results = runner.run(specs(2, crash_dir=str(tmp_path)))
        assert [r["value"] for r in results] == [0, 2]
        assert runner.stats.retried >= 1

    def test_worker_crash_exhausts_retries(self, tmp_path):
        runner = ExperimentRunner(
            jobs=2, execute=_always_crash, retries=1, mp_context="fork"
        )
        with pytest.raises(WorkerCrashError, match="giving up"):
            runner.run(specs(1))
        assert runner.stats.retried == 1

    def test_deterministic_exception_is_not_retried(self):
        runner = ExperimentRunner(
            jobs=2, execute=_fail_deterministically, retries=2, mp_context="fork"
        )
        with pytest.raises(ValueError, match="bad spec"):
            runner.run(specs(2))
        assert runner.stats.retried == 0


@needs_fork
class TestBorrowedPool:
    def test_pool_serves_many_runs_and_stays_open(self):
        with fork_pool() as pool:
            results = []
            for _ in range(2):
                runner = ExperimentRunner(jobs=2, execute=_pid, pool=pool)
                results += runner.run(specs(4))
                assert runner.pool is pool
            assert [r["i"] for r in results] == [0, 1, 2, 3] * 2
            pids = {r["pid"] for r in results}
            assert len(pids) <= 2 and os.getpid() not in pids
            assert pool.submit(_double, {"i": 3}).result() == {"i": 3, "value": 6}

    def test_jobs_one_runs_inline(self):
        with fork_pool() as pool:
            runner = ExperimentRunner(jobs=1, execute=_pid, pool=pool)
            assert {r["pid"] for r in runner.run(specs(2))} == {os.getpid()}

    def test_broken_pool_is_dropped_and_points_retried(self, tmp_path):
        pool = fork_pool()
        runner = ExperimentRunner(jobs=2, execute=_crash_once, retries=2, pool=pool)
        results = runner.run(specs(2, crash_dir=str(tmp_path)))
        assert [r["value"] for r in results] == [0, 2]
        assert runner.stats.retried >= 1
        assert runner.pool is None
        with pytest.raises(BrokenProcessPool):
            pool.submit(_double, {"i": 0})
        pool.shutdown()

    def test_pool_broken_before_the_run_counts_as_a_crash(self):
        pool = fork_pool()
        with pytest.raises(BrokenProcessPool):
            pool.submit(_always_crash, {"i": 0}).result()
        runner = ExperimentRunner(jobs=2, execute=_double, retries=1, pool=pool)
        assert [r["value"] for r in runner.run(specs(3))] == [0, 2, 4]
        assert runner.stats.retried == 3
        assert runner.pool is None
        pool.shutdown()

    def test_broken_pool_without_retries_gives_up(self):
        pool = fork_pool()
        runner = ExperimentRunner(jobs=2, execute=_always_crash, retries=0, pool=pool)
        with pytest.raises(WorkerCrashError, match="giving up"):
            runner.run(specs(2))
        assert runner.pool is None
        pool.shutdown()


class TestDefaultRunner:
    """Env configuration lives in one place: repro.api.make_runner."""

    def test_make_runner_reads_env_without_warning(self, monkeypatch, tmp_path):
        import warnings

        from repro import api

        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = api.make_runner()
        assert runner.jobs == 3
        assert runner.cache is not None
        assert runner.cache.root == tmp_path

    def test_env_defaults_to_serial_uncached(self, monkeypatch):
        from repro import api

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        runner = api.make_runner()
        assert runner.jobs == 1
        assert runner.cache is None

    def test_library_sweep_path_does_not_warn(self, monkeypatch):
        """run_sweep without runner= reads the environment through
        repro.api without any deprecation warning."""
        import warnings

        from repro.sim.experiment import _runner_or_default

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner = _runner_or_default(None)
        assert runner.jobs == 1
