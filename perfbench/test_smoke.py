"""Smoke tests for the benchmark itself (not the eprsim test suite).

Run from the repository root::

    python -m pytest perfbench -q

Each workload runs at smoke size (tiny truncations and grids), so the
whole file takes about a minute on a 2-core host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
import tracer
from jobs import WORKLOADS, make_jobs

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
JOB_COUNTS = {"steady-state": 1, "bell-sweep": 2, "short-jobs": 5}


def _spec():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def _run_bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_code_reports():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.per_layer_spec()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_checks_every_job_and_reports_every_metric(workload, trace):
    result = _run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # one pass untraced; the traced run replays each job untraced and traced
    assert result["attempted"] == JOB_COUNTS[workload] * (2 if trace else 1)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_seed_zero_runs_the_shipped_configs(tmp_path):
    for workload in WORKLOADS:
        for job in make_jobs(workload, 0, run.ROOT, str(tmp_path)):
            assert job.shipped
            assert os.path.dirname(job.config_path) == os.path.join(run.ROOT, "configs")
    assert not os.listdir(tmp_path)


def test_seeds_vary_parameters_but_not_sizes(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = make_jobs("bell-sweep", 1, run.ROOT, str(tmp_path / "a"))
    b = make_jobs("bell-sweep", 2, run.ROOT, str(tmp_path / "b"))
    for x, y in zip(a, b):
        assert x.config["r_grid"]["start"] != y.config["r_grid"]["start"]
        assert x.config["n_max"] == y.config["n_max"] == 40
        assert x.config["r_grid"]["num"] == y.config["r_grid"]["num"] == 12


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(run.SRC)
    state = run.Run("short-jobs", 3, smoke=True)
    yield state
    state.cleanup()


def test_timeout_kills_the_whole_process_group(bench_run, tmp_path):
    pid_file = tmp_path / "pids"
    script = (
        "import os, subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(f'{{os.getpid()}} {{child.pid}}')\n"
        "time.sleep(60)\n"
    )
    outcome = run.run_process([sys.executable, "-c", script], bench_run.env, 1.0,
                              str(tmp_path / "log"))
    assert outcome.error is not None and "timeout" in outcome.error
    assert outcome.end - outcome.start < 10
    for pid in map(int, pid_file.read_text().split()):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_failed_exit_and_failed_check_are_counted(bench_run, tmp_path):
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"schema_version": 99}')
    outcome = run.run_process(
        [sys.executable, "-m", "eprsim", "steady-state", "--config", str(bad_config)],
        bench_run.env, 30.0, str(tmp_path / "log"))
    assert outcome.error is not None and outcome.error.startswith("exit code 2")
    bench_run.record("bad-config", outcome.error)

    job = next(j for j in bench_run.jobs if j.command == "evolve")
    corrupt = tmp_path / "evolve.out"
    corrupt.write_text("t,n1,n2\n0,0,0\n1,5,5\n")
    bench_run.record("corrupt-artifact", None, str(corrupt), job)

    assert bench_run.attempted == 2
    assert len(bench_run.failures) == 2
