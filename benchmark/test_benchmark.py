"""Tests of the benchmark's own check step, scenario generator and tracer.

    PYTHONPATH=src python -m pytest -q benchmark/test_benchmark.py
"""

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

import check
import run
import scenarios
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _fields():
    """A direct-route field on a 0.5 lattice and the contour stamps."""
    t = np.linspace(0.0, 10.0, 21)
    x = np.linspace(0.0, 5.0, 11)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    E = 0.8 * np.exp(-((tt - xx - 3.0) / 0.7) ** 2) * np.exp(0.1j * xx)
    direct = (tt.ravel(), xx.ravel(), E.ravel())
    t_vals, x_vals = np.linspace(0.0, 10.0, 11), np.linspace(0.0, 5.0, 6)
    st, sx = np.meshgrid(t_vals, x_vals, indexing="ij")
    E_rh = check.on_stamps(direct, t_vals, x_vals) * (1.0 + 2e-4)
    return direct, (st.ravel(), sx.ravel(), E_rh.ravel()), t_vals, x_vals


def test_check_passes_close_field():
    direct, rh, t_vals, x_vals = _fields()
    err = check.check_pair(rh, direct, t_vals, x_vals)
    assert err == pytest.approx(2e-4, rel=1e-6)


def test_check_fails_field_scaled_by_one_percent():
    direct, rh, t_vals, x_vals = _fields()
    scaled = (rh[0], rh[1], rh[2] * 1.01)
    with pytest.raises(check.CheckFailed):
        check.check_pair(scaled, direct, t_vals, x_vals)


def test_check_fails_missing_stamp():
    direct, rh, t_vals, x_vals = _fields()
    with pytest.raises(check.CheckFailed):
        check.check_pair(rh, direct, np.array([0.25]), x_vals)


def _bad_desk(seed):
    cfg = scenarios.desk(seed)
    cfg["E_in"]["center"] = cfg["T"]        # does not decay: DecayViolation
    return cfg


def test_exit_code_3_counts_as_failed(tmp_path):
    os.makedirs(tmp_path / "scenarios")
    scenarios.write(_bad_desk(0), tmp_path / "scenarios" / "bad.json")
    job = ("solve-rh", "bad", ("--t", "0:10:2", "--x", "0:5:2"))
    runner = run.Runner(ROOT, str(tmp_path), time.monotonic() + 120.0)
    bad = runner.run(job)
    assert bad.rc == 3
    errs = run.assess([bad], bad, job)
    assert errs == []
    assert run.tally([bad]) == (1, 1)


def test_every_run_failing_still_prints_the_result(monkeypatch, capsys):
    job = ("solve-rh", "bad", ("--t", "0:10:2", "--x", "0:5:2"))
    monkeypatch.setattr(run, "SCENARIOS", {"bad": _bad_desk})
    monkeypatch.setitem(run.WORKLOADS, "desk_rh", (job, job))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 0)
    monkeypatch.chdir(ROOT)
    rc = run.main(["--workload", "desk_rh", "--seed", "0", "--seconds", "0",
                   "--trace", "0"])
    assert rc == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}


def test_child_past_the_deadline_reads_timed_out(tmp_path):
    os.makedirs(tmp_path / "scenarios")
    scenarios.write(scenarios.desk(0), tmp_path / "scenarios" / "desk.json")
    job = ("solve-rh", "desk", ("--t", "0:10:21", "--x", "0:5:6"))
    runner = run.Runner(ROOT, str(tmp_path), time.monotonic() + 0.2)
    late = runner.run(job)
    assert late.timed_out and late.error.startswith("timed out")
    assert run.tally([late]) == (1, 1)


def test_seed0_is_the_acceptance_desk_scenario(tmp_path):
    from mbrh.cli import load_scenario

    cfg = scenarios.desk(0)
    assert cfg == {"T": 10.0, "L": 5.0,
                   "E_in": {"pulse": "gaussian", "amplitude": 0.8,
                            "center": 3.0, "width": 0.7},
                   "E0": {"pulse": "zero"}, "rho0": None,
                   "profile": {"shape": "lorentzian", "l": 1.0, "sign": -1}}
    path = tmp_path / "desk.json"
    scenarios.write(cfg, path)
    sc, profile, _ = load_scenario(str(path))
    t = np.linspace(0.0, 10.0, 401)
    want = 0.8 * np.exp(-((t - 3.0) / 0.7) ** 2) + 0j * t
    assert np.array_equal(sc.E_in(t), want)
    assert np.array_equal(sc.E0(t), np.zeros_like(want))
    assert sc.rho0 is None and (sc.T, sc.L) == (10.0, 5.0)
    assert (profile.shape, profile.l, profile.sign) == ("lorentzian", 1.0, -1)


def test_committed_scenarios_are_seed_0():
    for name, build in scenarios.SCENARIOS.items():
        with open(os.path.join(HERE, "scenarios", f"{name}.json")) as fh:
            assert json.load(fh) == build(0), name


def test_jitter_stays_in_range():
    for seed in range(1, 50):
        d = scenarios.jitter(seed)
        assert all(abs(d[k]) <= r for k, r in scenarios.JITTER.items())
    assert scenarios.jitter(3) == scenarios.jitter(3)
    assert scenarios.jitter(3) != scenarios.jitter(4)


@pytest.fixture
def restore_mbrh():
    import mbrh.cli  # noqa: F401  (loads every mbrh module)

    saved = {name: dict(vars(m)) for name, m in sys.modules.items()
             if name.startswith("mbrh")}
    yield
    for name, d in saved.items():
        vars(sys.modules[name]).update(d)


def test_install_replaces_names_imported_by_value(restore_mbrh):
    from mbrh import broadening, lax, spectral

    orig = lax.cauchy_transform_F
    rec = spans.Recorder()
    n = spans.install(rec, [("lax", "cauchy_transform_F", None),
                            ("broadening", "pv_cauchy_pwlin", None)])
    assert n["lax.cauchy_transform_F"] >= 2            # lax and spectral
    assert n["broadening.pv_cauchy_pwlin"] >= 2        # broadening and lax
    assert spectral.cauchy_transform_F is lax.cauchy_transform_F
    assert spectral.cauchy_transform_F.__wrapped__ is orig
    assert lax.pv_cauchy_pwlin is broadening.pv_cauchy_pwlin
    grid = np.linspace(-1.0, 1.0, 9)
    lax.pv_cauchy_pwlin(grid, np.exp(-grid ** 2), np.array([0.05]))
    assert [s[0] for s in rec.spans] == ["broadening.pv_cauchy_pwlin"]


def test_install_follows_a_moved_function(restore_mbrh):
    from mbrh import broadening, lax

    rec = spans.Recorder()
    n = spans.install(rec, [("cli", "pv_cauchy_pwlin", None),
                            ("cli", "no_such_function", None)])
    assert n == {"cli.pv_cauchy_pwlin": 2, "cli.no_such_function": 0}
    assert lax.pv_cauchy_pwlin is broadening.pv_cauchy_pwlin
    grid = np.linspace(-1.0, 1.0, 9)
    lax.pv_cauchy_pwlin(grid, np.exp(-grid ** 2), np.array([0.05]))
    assert [s[0] for s in rec.spans] == ["cli.pv_cauchy_pwlin"]


def test_recorder_keeps_every_span_across_threads():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda v: v + 1)
    outer = rec.wrap("outer", lambda v: inner(v))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: [outer(i) for i in range(500)])
                   for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(old)
    assert len(rec.spans) == 8000
    parents = {(s[0], s[3]) for s in rec.spans}
    assert parents == {("outer", None), ("inner", "outer")}
