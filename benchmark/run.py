"""Benchmark of the two field routes of `mb-rh`, end to end and per layer.

    python3 benchmark/run.py --workload desk_rh --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each workload is one `mb-rh` subcommand on
a scenario JSON made from --seed (see scenarios.py), run in a fresh
process, one process at a time, as a user runs it.  Runs repeat until
--seconds have passed (at least one).  Every run's field is checked
against the other route's field on the same scenario and stamp lattice
(check.py); the other route runs once, untimed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
also makes one run with the public functions of the mbrh modules wrapped
(spans.py) and prints the per-layer metrics.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}; when no
run passed its check, metrics is empty and the exit code is 1.

The pool width (MB_RH_THREADS) and the BLAS threads are left as the
environment sets them, and printed with the library versions.
"""

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import CheckFailed, check_pair, load_field  # noqa: E402
from scenarios import SCENARIOS, write  # noqa: E402

# (subcommand, scenario, extra arguments); a contour job's --t/--x give
# the stamp lattice on which the two routes are compared
RH_DESK = ("solve-rh", "desk_rh", ("--t", "0:10:21", "--x", "0:5:6"))
DIRECT_DESK = ("solve-direct", "desk_direct", ("--dt", "0.05"))
RH_EXCITED = ("solve-rh", "excited_rh", ("--t", "0:10:11", "--x", "0:2:5"))
DIRECT_EXCITED = ("solve-direct", "excited_direct", ("--dt", "0.05"))

# workload -> (timed job, untimed reference job of the other route)
WORKLOADS = {
    "desk_rh": (RH_DESK, DIRECT_DESK),
    "desk_direct": (DIRECT_DESK, RH_DESK),
    "excited_rh": (RH_EXCITED, DIRECT_EXCITED),
}

SETUP_SAMPLES = 5          # set-up-only processes per run, besides the timed ones
BUDGET_S = 170.0           # every child must end within this much of the start;
                           # one still running then is killed and reported as
                           # timed out
THREAD_VARS = ("MB_RH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


class Run:
    """One child process: exit code, clock stamps and peak memory."""

    def __init__(self, job, out, rc, setup_s=None, solve_s=None, rss_mb=None,
                 spans=None, pool_width=None, replaced=None, timed_out=False):
        self.job, self.out, self.rc = job, out, rc
        self.setup_s, self.solve_s, self.rss_mb = setup_s, solve_s, rss_mb
        self.spans, self.pool_width, self.replaced = spans, pool_width, replaced
        self.timed_out = timed_out
        if timed_out:
            self.error = f"timed out: killed at the {BUDGET_S:.0f} s deadline"
        else:
            self.error = None if rc == 0 else f"exit code {rc}"


class Runner:
    """Starts children one at a time from the repository root."""

    def __init__(self, root, work, deadline):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.count = 0

    def argv(self, job, out):
        cmd, scenario, extra = job
        path = os.path.join(self.work, "scenarios", f"{scenario}.json")
        return [cmd, "--scenario", path, *extra, "--out", out]

    def run(self, job, trace=False, setup_only=False):
        self.count += 1
        tag = os.path.join(self.work, f"run{self.count}")
        out = tag + "-out"
        timing = tag + "-timing.json"
        spans = tag + "-spans.json" if trace else None
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--timing", timing]
        if trace:
            cmd += ["--trace", spans]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", *self.argv(job, out)]
        with open(tag + ".log", "w") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            rc, rusage, killed = self._wait(proc)
        if killed or rc != 0 or not os.path.exists(timing):
            return Run(job, out, rc if rc != 0 else -1, timed_out=killed)
        with open(timing) as fh:
            st = json.load(fh)
        return Run(job, out, rc, setup_s=st["enter"] - t0,
                   solve_s=st["exit"] - st["enter"],
                   rss_mb=rusage.ru_maxrss / 1024.0, spans=spans,
                   pool_width=st["pool_width"], replaced=st.get("replaced"))

    def _wait(self, proc):
        """Reap the child with its own rusage; kill it past the deadline.
        Returns (exit code, rusage, killed)."""
        killed = False
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                proc.kill()
                pid, status, rusage = os.wait4(proc.pid, 0)
                killed = True
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, rusage, killed


def lattice(job):
    """Stamp lattice (t_vals, x_vals) of a contour job."""
    extra = dict(zip(job[2][::2], job[2][1::2]))
    axes = []
    for key in ("--t", "--x"):
        a, b, n = extra[key].split(":")
        axes.append(np.linspace(float(a), float(b), int(n)))
    return axes


def assess(runs, ref, rh_job):
    """Check every run against the reference; returns the errors of the
    runs that pass.  A run that exited nonzero, or whose field fails the
    check, gets .error set and counts as failed."""
    t_vals, x_vals = lattice(rh_job)
    ref_field = None
    if ref.rc == 0:
        try:
            ref_field = load_field(os.path.join(ref.out, "fields.csv"))
        except CheckFailed as exc:
            ref.error = f"reference: {exc}"
    errs = []
    for r in runs:
        if r.error is not None:
            continue
        if ref_field is None:
            r.error = f"no reference ({ref.error})"
            continue
        try:
            field = load_field(os.path.join(r.out, "fields.csv"))
            pair = (field, ref_field) if r.job[0] == "solve-rh" else (ref_field, field)
            errs.append(check_pair(*pair, t_vals, x_vals))
        except CheckFailed as exc:
            r.error = str(exc)
    return errs


def tally(runs):
    """(attempted, failed): a run fails if it exited nonzero, timed out or
    failed a check."""
    return len(runs), sum(1 for r in runs if r.error is not None)


def _durations(spans, name):
    return [t1 - t0 for n, t0, t1, _, _, _ in spans if n == name]


def _info_sum(spans, name, key):
    return float(sum(i[key] for n, _, _, _, ok, i in spans if n == name and ok))


def _pct_ms(durs, q):
    return float(np.percentile(durs, q)) * 1e3 if durs else 0.0


def layer_metrics(spans, traced_solve_s, untraced_solve_s):
    """Per-layer figures of one traced run; a layer that never ran reads 0."""
    d = lambda name: _durations(spans, name)
    sie = d("rhsolver.sie_solve")
    loop = sum(d("cli.parallel_map"))
    conds = [i["cond"] for n, _, _, _, ok, i in spans
             if n == "rhsolver.sie_solve" and ok]
    direct = d("direct.integrate_direct")
    steps = _info_sum(spans, "direct.integrate_direct", "steps")
    rot = d("direct.bloch_rotation")
    mixed = d("jump.jump_mixed")
    return {
        "rhsolver.sie_solve_ms.p50": _pct_ms(sie, 50),
        "rhsolver.sie_solve_ms.p95": _pct_ms(sie, 95),
        "rhsolver.sie_solve_calls": len(sie),
        "rhsolver.sie_busy_s": sum(sie),
        "rhsolver.cauchy_build_s": sum(d("rhsolver._build_cauchy_plus")),
        "rhsolver.cauchy_builds": len(d("rhsolver._build_cauchy_plus")),
        "rhsolver.cond_max": max(conds, default=0.0),
        "rhsolver.refusals": sum(1 for n, _, _, _, ok, _ in spans
                                 if n == "rhsolver.sie_solve" and not ok),
        "cli.stamp_loop_s": loop,
        "cli.stamp_concurrency": sum(sie) / loop if loop > 0 else 0.0,
        "cli.emit_s": sum(d("cli.emit_results")),
        "cli.load_scenario_s": sum(d("cli.load_scenario")),
        "spectral.jost_phi_s": sum(d("spectral.jost_phi")),
        "spectral.jost_w_s": sum(d("spectral.jost_w")),
        "spectral.magnus_steps": _info_sum(spans, "spectral.magnus_propagate", "steps"),
        "spectral.pole_search_s": sum(d("spectral.locate_a_zeros")),
        "spectral.pole_points": _info_sum(spans, "spectral.continued_a", "points"),
        "spectral.poles": _info_sum(spans, "spectral.locate_a_zeros", "poles"),
        "jump.k_solve_s": sum(d("jump.k_solve")),
        "jump.jump_mixed_ms.p50": _pct_ms(mixed, 50),
        "jump.jump_mixed_calls": len(mixed),
        "lax.cauchy_transform_F_s": sum(d("lax.cauchy_transform_F")),
        "lax.cauchy_transform_F_calls": len(d("lax.cauchy_transform_F")),
        "broadening.pv_cauchy_pwlin_s": sum(d("broadening.pv_cauchy_pwlin")),
        "broadening.pv_cauchy_pwlin_calls": len(d("broadening.pv_cauchy_pwlin")),
        "direct.bloch_rotation_ms.p50": _pct_ms(rot, 50),
        "direct.bloch_rotation_ms.p95": _pct_ms(rot, 95),
        "direct.bloch_rotation_calls": len(rot),
        "direct.step_ms": sum(direct) / steps * 1e3 if steps else 0.0,
        "direct.history_mb": _info_sum(spans, "direct.integrate_direct", "history_mb"),
        "trace.overhead_frac": traced_solve_s / untraced_solve_s - 1.0,
    }


def environment(pool_width):
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    threads = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (f"env: nproc={os.cpu_count()} pool_width={pool_width} {threads}; "
            f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, blas {blas}")


def spec(root):
    """(end-to-end units, per-layer units, run_seconds) from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            bench["run_seconds"])


@contextlib.contextmanager
def workdir(root, tag):
    """Scratch directory under .bench_run/ in root, removed afterwards."""
    base = os.path.join(root, ".bench_run")
    work = os.path.join(base, f"{tag}-{os.getpid()}")
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass            # another run still uses it


def measure(root, work, workload, seed, seconds, trace):
    """All children of one benchmark run.

    Returns {correct, attempted, failed, e2e, layers}.  e2e is None when
    no timed run passed its check; layers is None without trace or when
    the traced run failed.
    """
    timed_job, ref_job = WORKLOADS[workload]
    os.makedirs(os.path.join(work, "scenarios"))
    for name, build in SCENARIOS.items():
        write(build(seed), os.path.join(work, "scenarios", f"{name}.json"))
    runner = Runner(root, work, time.monotonic() + BUDGET_S)

    runner.run(timed_job, setup_only=True)         # warm-up, discarded
    runs = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        runs.append(runner.run(timed_job))
    setups = [runner.run(timed_job, setup_only=True) for _ in range(SETUP_SAMPLES)]
    traced = runner.run(timed_job, trace=True) if trace else None
    ref = runner.run(ref_job)

    checked = runs + ([traced] if traced else [])
    errs = assess(checked, ref, timed_job if timed_job[0] == "solve-rh" else ref_job)
    ok = [r for r in runs if r.error is None]
    for i, r in enumerate(checked):
        kind = "traced" if r is traced else "timed"
        print(f"run {i} ({kind}): " + (
            f"setup {r.setup_s:.3f} s, solve {r.solve_s:.3f} s, "
            f"peak rss {r.rss_mb:.1f} MB" if r.solve_s is not None else "no timing")
            + (f", FAILED: {r.error}" if r.error else ", ok"))
    print(f"reference {' '.join(ref_job[:2])}: " + (ref.error or "ok"))
    attempted, failed = tally(checked)
    timed_out = sum(1 for r in checked if r.timed_out)
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.3f}"
          f" ({timed_out} timed out)")
    res = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "e2e": None, "layers": None}
    if not ok:
        print(f"{workload}: no timed run passed its check; no metrics")
        return res
    print(environment(ok[0].pool_width))

    solve_s = float(np.median([r.solve_s for r in ok]))
    res["e2e"] = {
        "solve_s": solve_s,
        "setup_s": float(np.median([r.setup_s for r in ok + setups
                                    if r.setup_s is not None])),
        "peak_rss_mb": float(np.median([r.rss_mb for r in ok])),
        "field_err_rel": float(np.median(errs)),
    }
    if trace and traced.error is not None:
        print(f"{workload}: the traced run failed; no per-layer metrics")
    elif trace:
        for label, n in traced.replaced.items():
            if n == 0:
                print(f"trace: no mbrh module defines {label.split('.')[1]}; "
                      f"its {label} metrics read 0")
        with open(traced.spans) as fh:
            res["layers"] = layer_metrics(json.load(fh), traced.solve_s, solve_s)
    return res


def print_metrics(workload, metrics, units):
    for name, unit in units.items():
        print(f"{workload} {name} = {metrics[name]:.6g} {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mbrh", "cli.py")):
        print("benchmark: no src/mbrh/cli.py under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    e2e_units, layer_units, _ = spec(root)
    with workdir(root, f"{args.workload}-{args.seed}") as work:
        res = measure(root, work, args.workload, args.seed, args.seconds,
                      args.trace)
    metrics, units = ((res["layers"], layer_units) if args.trace
                      else (res["e2e"], e2e_units))
    if metrics is None:
        print(f"{args.workload} verdict: FAIL")
        print(json.dumps({"correct": False, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": {}}))
        return 1
    if set(metrics) != set(units):
        print(f"benchmark: metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    print_metrics(args.workload, metrics, units)
    print(f"{args.workload} verdict: {'PASS' if res['correct'] else 'FAIL'}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
