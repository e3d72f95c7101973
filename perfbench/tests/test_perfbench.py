"""Tests of the benchmark itself: tracer arithmetic, workload inputs,
output checks, the smoke mode and the refusal to run without a source
tree.  Run with `python -m pytest perfbench/tests`."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


INNER = """
def leaf():
    clock.now += 2.0

def solve(obj, x0):
    clock.now += 1.0
    obj(x0)
    obj(x0)
    return Result(iterations=3, f_star=0.5, status="converged")
"""

OUTER = """
def _objective(x):
    clock.now += 0.25

def top():
    clock.now += 5.0
    leaf()
    return solve(_objective, 0)
"""


def _module(name, source, **env):
    mod = types.ModuleType(name)
    vars(mod).update(env)
    exec(source, vars(mod))
    return mod


def test_self_time_subtracts_child_spans(monkeypatch):
    clock = FakeClock()
    inner = _module("fakepkg.inner", INNER, clock=clock,
                    Result=types.SimpleNamespace)
    outer = _module("fakepkg.outer", OUTER, clock=clock,
                    leaf=inner.leaf, solve=inner.solve)
    monkeypatch.setitem(sys.modules, "fakepkg.inner", inner)
    monkeypatch.setitem(sys.modules, "fakepkg.outer", outer)
    monkeypatch.setitem(tracing._HOOKS, ("inner", "solve"), tracing._BfgsHook)
    tr = tracing.Tracer([inner, outer], package="fakepkg", clock=clock)
    tr.install()
    try:
        outer.top()
    finally:
        tr.uninstall()
    assert outer.leaf is inner.leaf
    summary = tr.summary()
    # top's own 5.0 plus the two objective calls it handed to solve
    assert summary["self_s"]["outer"] == pytest.approx(5.5)
    # leaf's 2.0 plus solve's own 1.0, net of the objective spans
    assert summary["self_s"]["inner"] == pytest.approx(3.0)
    assert summary["inclusive_s"]["outer.objective"] == pytest.approx(0.5)
    assert tr.counts["optim.f_evals"] == 2
    assert tr.counts["optim.iterations"] == 3
    assert tr.counts["inner.calls"] == 2 and tr.counts["outer.calls"] == 1
    assert tr.fits == [{"label": "", "iterations": 3, "f_evals": 2,
                        "f_star": 0.5, "status": "converged"}]


def test_install_rebinds_imported_names_and_uninstall_restores():
    import ratioloss.cli as cli
    import ratioloss.dre as dre
    import importlib

    modules = [importlib.import_module(f"ratioloss.{m}") for m in tracing.LAYERS]
    fit, run_all, cmd_fit = dre.fit, cli.run_all, cli.COMMANDS["fit"]
    tr = tracing.Tracer(modules)
    tr.install()
    try:
        assert cli.fit is not fit and cli.fit.__wrapped__ is fit
        assert cli.run_all is not run_all
        assert cli.COMMANDS["fit"] is not cmd_fit
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    assert dre.fit is fit and cli.fit is fit and cli.run_all is run_all
    assert cli.COMMANDS["fit"] is cmd_fit


def test_workload_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 7, "w")
        assert a == workloads.build(name, 7, "w")
        assert a != workloads.build(name, 8, "w")
        assert len({inv.label for inv in a}) == len(a)
        for inv in a:
            assert inv.argv[0] in workloads.OUTPUTS
            assert inv.oracle is None or inv.oracle in {i.label for i in a}
    with pytest.raises(ValueError):
        workloads.build("nope", 0, "w")


def _fit_output(tmp_path, tag, status, coeffs, nan=False):
    out = tmp_path / tag
    out.mkdir()
    model = {"kernel": {"sigma": 0.5}, "centers": [[0.0], [1.0]],
             "coeffs": coeffs}
    (out / "model.json").write_text(json.dumps(model))
    metrics = {"status": status, "iterations": 4,
               "train_risk": float("nan") if nan else 0.1}
    (out / "metrics.json").write_text(json.dumps(metrics))
    return workloads.Invocation(tag, ("fit",), str(out))


def test_check_pass_separates_failed_from_wrong(tmp_path):
    good = _fit_output(tmp_path, "good", "converged", [1.0, 2.0])
    slow = _fit_output(tmp_path, "slow", "max_iter", [1.0, 2.0])
    nan = _fit_output(tmp_path, "nan", "converged", [1.0, 2.0], nan=True)
    off = _fit_output(tmp_path, "off", "converged", [1.0, 2.1])
    off = workloads.Invocation("off", ("fit",), off.out, oracle="good")
    crashed = workloads.Invocation("crashed", ("fit",), str(tmp_path / "none"))
    invs = [good, slow, nan, off, crashed]
    runs = {i.label: {"exit": 0, "error": ""} for i in invs}
    runs["crashed"] = {"exit": 2, "error": "numerical failure"}
    recs = {r["label"]: r for r in verify.check_pass(invs, runs, None)}
    assert recs["good"]["failed"] == [] and recs["good"]["wrong"] == []
    assert recs["slow"]["failed"] == ["fit ended max_iter"]
    assert recs["slow"]["wrong"] == []
    assert recs["nan"]["wrong"] and not recs["nan"]["failed"]
    assert "scores differ" in recs["off"]["wrong"][0]
    assert recs["crashed"]["failed"] and not recs["crashed"]["wrong"]

    reference = {"good": {"model.json": "0" * 64}}
    recs = verify.check_pass([good], runs, reference)
    assert any("bytes differ" in w for w in recs[0]["wrong"])


def test_smoke_mode_reports_every_declared_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-n2000",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
