"""eprsim benchmark: timed CLI workloads with artifact checks and a traced run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload {steady-state,bell-sweep,short-jobs}
        --seed N --seconds S --trace {0,1} [--smoke]

``--trace 0`` runs the workload's job list as a closed loop with one
client: each job is a fresh ``python -m eprsim <command>`` process,
started after the previous one exits.  The list is run S / (first
pass's wall time) times, rounded, and at least once.  It reports
``wall_s`` (median over passes of the time from launching a pass's first
job to the exit of its last), ``setup_s`` (median of several fresh
``import eprsim.cli`` processes) and ``peak_rss_mb`` (the largest peak
resident memory of any job, from the job's own rusage).

``--trace 1`` replays the same jobs in-process, untraced and then with
spans around every public eprsim function (see ``tracer.py``), and
reports the per-layer metrics.

Every artifact is checked (``checks.py``); a job that exits non-zero,
outlives its timeout or fails its check is a failed operation.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from jobs import WORKLOADS, make_jobs  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REQUIRED = ("src/eprsim/cli.py", "src/eprsim/__main__.py", "configs/steady_state.json",
            "golden/bell_sweep.csv", "golden/bell_sweep_max.json")

# One job at a time with single-threaded BLAS/OpenMP keeps the job and its
# threads within the 2 cores of the reference host.
CHILD_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_IMPORTS = 5
# A run ends, jobs killed if need be, this long after it starts.
RUN_DEADLINE_S = 170.0
# The traced run is rejected when the layer spans explain less of the
# in-process job time than this; the rest is cli's own parsing and output.
# Not applied at smoke size, where that fixed cli cost is a larger share.
MIN_LAYER_COVERAGE = 0.9

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclasses.dataclass
class Outcome:
    """A finished child process."""

    start: float
    end: float
    peak_rss_mb: float
    error: str | None   # None when it exited 0 in time


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["EPRSIM_LOG"] = "WARNING"
    env.update({var: CHILD_THREADS for var in THREAD_VARS})
    return env


def run_process(argv: list[str], env: dict, timeout: float, log_path: str) -> Outcome:
    """Run ``argv`` to completion or kill its process group after ``timeout`` s."""
    reaped: dict = {}
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT, start_new_session=True)

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.update(end=time.perf_counter(), status=status, usage=usage)

    waiter = threading.Thread(target=reap, daemon=True)
    waiter.start()
    try:
        waiter.join(max(timeout, 0.0))
    finally:   # also when the benchmark itself is interrupted or terminated
        timed_out = waiter.is_alive()
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
            waiter.join()
        _wait_group_gone(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    rss_mb = reaped["usage"].ru_maxrss / 1024.0   # Linux reports KiB
    if timed_out:
        error = f"killed after the {timeout:.0f} s timeout"
    elif proc.returncode != 0:
        with open(log_path, "rb") as fh:
            tail = fh.read()[-300:].decode(errors="replace").strip().replace("\n", " | ")
        error = f"exit code {proc.returncode}: {tail}"
    else:
        error = None
    return Outcome(start, reaped["end"], rss_mb, error)


def _wait_group_gone(pgid: int, limit_s: float = 5.0):
    """Kill and wait out anything left in the job's process group."""
    stop = time.monotonic() + limit_s
    while time.monotonic() < stop:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def host_record(seed: int, workload: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "seed": seed,
        "workload": workload,
        "child_threads": {var: CHILD_THREADS for var in THREAD_VARS},
        "concurrent_jobs": 1,
    }


class Run:
    """State of one benchmark run: work directory, deadline and counters."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_DEADLINE_S
        self.work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{os.getpid()}")
        os.makedirs(os.path.join(self.work, "configs"))
        self.env = child_env()
        self.jobs = make_jobs(workload, seed, ROOT, os.path.join(self.work, "configs"), smoke)
        self.attempted = 0
        self.failures: list[str] = []
        self.trace_errors: list[str] = []

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:   # another run is still using it
            pass

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def record(self, label: str, error: str | None, out: str | None = None, job=None):
        """Count one operation; check its artifact when it ran cleanly."""
        import checks  # imports eprsim from SRC; kept out of the timed set-up

        self.attempted += 1
        if error is None and job is not None:
            error = checks.check(job, out, ROOT)
        if error is not None:
            self.failures.append(f"{label}: {error}")
            print(f"FAILED {label}: {error}", file=sys.stderr)


def measure_setup(run: Run, count: int) -> float:
    argv = [sys.executable, "-c", "import eprsim.cli"]
    log = os.path.join(run.work, "setup.log")
    times = []
    for k in range(count + 1):   # the first import warms the bytecode and file caches
        outcome = run_process(argv, run.env, 60.0, log)
        if outcome.error is not None:
            raise RuntimeError(f"import eprsim.cli failed: {outcome.error}")
        if k:
            times.append(outcome.end - outcome.start)
    return statistics.median(times)


def run_untraced(run: Run, seconds: float) -> dict[str, float]:
    setup_s = measure_setup(run, 2 if run.smoke else SETUP_IMPORTS)
    walls, peak_mb = [], 0.0
    job_seconds: dict[str, list[float]] = {job.label: [] for job in run.jobs}
    while True:
        pass_dir = os.path.join(run.work, f"pass{len(walls)}")
        os.makedirs(pass_dir)
        finished = []
        for job in run.jobs:
            out = os.path.join(pass_dir, job.label + ".out")
            budget = min(job.timeout, run.time_left())
            if budget <= 0:
                finished.append((job, out, None))
                continue
            argv = [sys.executable, "-m", "eprsim", *job.argv(out)]
            finished.append((job, out, run_process(argv, run.env, budget, out + ".log")))
        ran = [o for _, _, o in finished if o is not None]
        for job, out, outcome in finished:
            if outcome is None:
                run.record(job.label, "not started: run deadline reached")
            else:
                peak_mb = max(peak_mb, outcome.peak_rss_mb)
                job_seconds[job.label].append(outcome.end - outcome.start)
                run.record(job.label, outcome.error, out, job)
        if ran:
            walls.append(ran[-1].end - ran[0].start)
        # The first pass fixes how many fit in the measuring window, so the
        # count does not hinge on each pass's noise; a pass longer than the
        # window (one steady-state job) runs once.
        if not ran or len(walls) >= max(1, round(seconds / walls[0])):
            break
        if time.perf_counter() + 1.5 * walls[-1] > run.deadline:
            break
    print("median seconds per job: " + ", ".join(
        f"{label} {statistics.median(times):.4f}" for label, times in job_seconds.items() if times))
    print(f"passes: {len(walls)}, pass walls (s): {[round(w, 3) for w in walls]}, "
          f"setup_s: {setup_s:.4f}")
    return {"wall_s": statistics.median(walls), "setup_s": setup_s, "peak_rss_mb": peak_mb}


def run_traced(run: Run) -> dict[str, float]:
    dirs = {key: os.path.join(run.work, key) for key in ("warmup", "plain", "traced")}
    for d in dirs.values():
        os.makedirs(d)
    warmup = make_jobs(run.workload, run.seed, ROOT, dirs["warmup"], smoke=True)
    spec = [{"label": job.label,
             "warmup_argv": warm.argv(os.path.join(dirs["warmup"], job.label + ".out")),
             **{f"{key}_argv": job.argv(os.path.join(dirs[key], job.label + ".out"))
                for key in ("plain", "traced")}}
            for job, warm in zip(run.jobs, warmup)]
    jobs_path = os.path.join(run.work, "jobs.json")
    result_path = os.path.join(run.work, "trace.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    budget = min(2.0 * sum(job.timeout for job in run.jobs), run.time_left())
    argv = [sys.executable, os.path.join(HERE, "tracer.py"), jobs_path, result_path]
    outcome = run_process(argv, run.env, budget, os.path.join(run.work, "trace.log"))
    if outcome.error is not None:
        for key in ("plain", "traced"):
            for job in run.jobs:
                run.record(f"{key}:{job.label}", f"traced replay: {outcome.error}")
        return {name: 0.0 for name, _, _ in tracer.per_layer_spec()}

    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    for key in ("plain", "traced"):
        for job, replay in zip(run.jobs, result[key]):
            run.record(f"{key}:{job.label}", replay["error"],
                       os.path.join(dirs[key], job.label + ".out"), job)
    values = tracer.layer_metrics(result)
    coverage = _print_trace_report(run, result, values)
    if coverage < MIN_LAYER_COVERAGE and not run.smoke:
        run.trace_errors.append(f"layer spans cover {coverage:.1%} of the in-process time")
        print(f"FAILED trace: {run.trace_errors[-1]}", file=sys.stderr)
    return values


def _print_trace_report(run: Run, result: dict, values: dict[str, float]) -> float:
    """Print span aggregates and metrics; return the workload's layer coverage."""
    print("span aggregates (name: calls, total s, self s):")
    for name, agg in sorted(tracer.span_aggregates(result["spans"]).items()):
        print(f"  {name}: {agg['calls']} calls, {agg['s']:.6f} s, self {agg['self_s']:.6f} s")
    print("per-layer metrics:")
    for name, unit, _ in tracer.per_layer_spec():
        print(f"  {name} = {values[name]:.6g} {unit}")
    shares = tracer.layer_coverage(result["spans"], result["traced"])
    print("in-process time inside layer spans, per job: " + ", ".join(
        f"{job.label} {cov / total:.1%}" for job, (cov, total) in zip(run.jobs, shares)))
    coverage = sum(cov for cov, _ in shares) / sum(total for _, total in shares)
    print(f"in-process time inside layer spans, workload: {coverage:.1%}")
    print("in-process seconds per job, untraced / traced: " + ", ".join(
        f"{p['label']} {p['seconds']:.4f} / {t['seconds']:.4f}"
        for p, t in zip(result["plain"], result["traced"])))
    main_spans = sum(s[2] - s[1] for s in result["spans"] if s[0] == "cli.main")
    plain = sum(r["seconds"] for r in result["plain"])
    print(f"span total (cli.main) {main_spans:.4f} s vs untraced replay {plain:.4f} s: "
          f"trace.overhead_frac {values['trace.overhead_frac']:+.4f}")
    return coverage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny truncations and grids, for the benchmark's own tests")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an eprsim source checkout, missing {missing}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so the running job is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in THREAD_VARS:   # the artifact checks run numpy in this process
        os.environ[var] = CHILD_THREADS
    sys.path.insert(0, SRC)

    print("host: " + json.dumps(host_record(args.seed, args.workload), sort_keys=True))
    run = Run(args.workload, args.seed, args.smoke)
    try:
        if args.trace:
            values = run_traced(run)
            units = {name: unit for name, unit, _ in tracer.per_layer_spec()}
        else:
            values = run_untraced(run, args.seconds)
            units = dict(END_TO_END)
    finally:
        run.cleanup()
    print(json.dumps({
        "correct": not run.failures and not run.trace_errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
