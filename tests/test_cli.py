"""Command line interface: exit codes, outputs, config handling, and
byte-level determinism."""
import base64
import hashlib
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ratioloss import (KernelSpec, cli, dre, empirical_risk, family_loss,
                       gram, kernels, median_heuristic, optim)
from ratioloss.cli import main


def read_header(path):
    with open(path) as fh:
        return fh.readline().strip().split(",")


def test_no_command_is_a_usage_error():
    assert main([]) == 1
    assert main(["no-such-command"]) == 1


def test_failure_exit_codes(tmp_path, monkeypatch):
    """2 for a numerical failure such as FitError, 3 for a failed identity
    suite, as the cli docstring and the README state."""
    def failing_fit(*args, **kwargs):
        raise cli.FitError("forced")

    monkeypatch.setattr(cli, "fit", failing_fit)
    assert main(["fit", "--family", "lr", "--n", "5", "--m", "5",
                 "--out", str(tmp_path / "fit")]) == 2
    group = {"group": "forced", "passed": False, "max_residual": 1.0,
             "tolerance": 1e-9, "cases": 1}
    monkeypatch.setattr(cli, "run_all",
                        lambda seed: {"passed": False, "groups": [group]})
    assert main(["check"]) == 3


def test_help_exits_cleanly():
    assert main(["--help"]) == 0
    assert main(["fit", "--help"]) == 0


def test_loss_show_outputs(tmp_path):
    out = tmp_path / "ls"
    assert main(["loss-show", "--family", "kulsif", "--out", str(out)]) == 0
    assert read_header(out / "loss.csv") == [
        "yhat", "ell_pos", "ell_neg", "eta_hat", "beta_hat",
        "slack_lower", "slack_upper"]
    rows = np.loadtxt(out / "loss.csv", delimiter=",", skiprows=1)
    assert rows.shape == (101, 7)
    # identity map: yhat column equals beta_hat column
    assert np.array_equal(rows[:, 0], rows[:, 4])
    doc = json.loads((out / "loss.json").read_text())
    assert doc["family"] == "kulsif" and doc["n"] == 101


def test_loss_show_rejects_bad_range(tmp_path):
    assert main(["loss-show", "--family", "lr", "--beta-lo", "2",
                 "--beta-hi", "1", "--out", str(tmp_path / "x")]) == 1


def test_missing_required_option(tmp_path):
    assert main(["loss-show", "--out", str(tmp_path / "x")]) == 1


def test_fit_eval_roundtrip(tmp_path):
    fit_dir = tmp_path / "fit"
    code = main(["fit", "--family", "kulsif", "--solver", "closed-form",
                 "--alpha", "0.01", "--n", "12", "--m", "12",
                 "--out", str(fit_dir)])
    assert code == 0
    model = json.loads((fit_dir / "model.json").read_text())
    assert set(model) >= {"family", "alpha", "kernel", "centers", "coeffs"}
    assert len(model["coeffs"]) == 24
    metrics = json.loads((fit_dir / "metrics.json").read_text())
    assert metrics["status"] == "closed_form"

    ev_dir = tmp_path / "ev"
    code = main(["eval", "--model", str(fit_dir / "model.json"),
                 "--pair", "piecewise", "--out", str(ev_dir)])
    assert code == 0
    assert read_header(ev_dir / "predictions.csv") == ["x0", "beta_hat",
                                                       "beta_exact"]
    ev = json.loads((ev_dir / "eval.json").read_text())
    assert ev["n_points"] == 401
    assert ev["sup_abs_error"] >= 0.0


def test_eval_counts_capped_predictions(tmp_path):
    """eval.json's clamp_count is the number of capped beta_hat entries;
    model.json carries no clamp count."""
    fit_dir, ev_dir = tmp_path / "fit", tmp_path / "ev"
    assert main(["fit", "--family", "ew", "--pair", "gaussian", "--n", "40",
                 "--m", "40", "--seed", "4", "--alpha", "1e-3",
                 "--out", str(fit_dir)]) == 0
    assert "clamp_count" not in json.loads(
        (fit_dir / "model.json").read_text())
    assert main(["eval", "--model", str(fit_dir / "model.json"),
                 "--pair", "gaussian", "--grid-lo", "-3", "--grid-hi", "3",
                 "--out", str(ev_dir)]) == 0
    beta_hat = np.loadtxt(ev_dir / "predictions.csv", delimiter=",",
                          skiprows=1)[:, 1]
    capped = int(np.sum((beta_hat == 1e-12) | (beta_hat == 1e6)))
    assert capped > 0
    assert json.loads((ev_dir / "eval.json").read_text())["clamp_count"] == (
        capped)


def test_fit_accepts_data_files(tmp_path):
    rng = np.random.default_rng(0)
    p_file, q_file = tmp_path / "p.csv", tmp_path / "q.csv"
    np.savetxt(p_file, rng.uniform(0.0, 1.0, 15), delimiter=",")
    np.savetxt(q_file, rng.uniform(-1.0, 1.0, 15), delimiter=",")
    out = tmp_path / "fit"
    assert main(["fit", "--family", "kulsif", "--solver", "closed-form",
                 "--data-p", str(p_file), "--data-q", str(q_file),
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n"] == 15 and metrics["m"] == 15
    # one file without the other is an error
    assert main(["fit", "--family", "kulsif", "--data-p", str(p_file),
                 "--out", str(out)]) == 1


def test_fit_with_cross_validated_alpha(tmp_path):
    out = tmp_path / "cv"
    code = main(["fit", "--family", "kulsif", "--solver", "closed-form",
                 "--alpha", "cv", "--cv-alphas", "10,0.001", "--folds", "2",
                 "--n", "10", "--m", "10", "--max-iter", "80",
                 "--out", str(out)])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["alpha"] in (10.0, 0.001)
    assert len(metrics["cv_table"]) == 2


def _log_calls(path):
    """A spy's log: one line per call, appended to a file, so that calls
    made in forked fit workers reach the test too."""
    def log(value):
        with open(path, "a") as fh:
            fh.write(repr(value) + "\n")
    return log


def test_cross_validation_uses_the_gradient_tolerance(tmp_path, monkeypatch):
    # 3 alphas x 5 folds, then the final fit: every solve gets --grad-tol
    log = _log_calls(tmp_path / "tols")

    def spying_bfgs(obj, x0, **kwargs):
        log(kwargs["grad_tol"])
        return optim.bfgs(obj, x0, **kwargs)

    monkeypatch.setattr(dre, "bfgs", spying_bfgs)
    assert main(["fit", "--family", "lr", "--alpha", "cv", "--grad-tol",
                 "1e-3", "--n", "10", "--m", "10",
                 "--out", str(tmp_path / "cv")]) == 0
    tols = [float(v) for v in (tmp_path / "tols").read_text().split()]
    assert tols == [1e-3] * 16


def test_fold_fits_use_the_pooled_median_sigma(tmp_path, monkeypatch):
    # the median sigma is resolved once on the pooled sample, so all 15
    # fold fits and the final fit share it
    log = _log_calls(tmp_path / "sigmas")

    def spying_fit(samples, loss, kernel, alpha, **kwargs):
        log(kernel.sigma)
        return real_fit(samples, loss, kernel, alpha, **kwargs)

    real_fit = dre.fit
    monkeypatch.setattr(dre, "fit", spying_fit)
    out = tmp_path / "cv"
    assert main(["fit", "--family", "lr", "--alpha", "cv", "--n", "10",
                 "--m", "10", "--out", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())
    sigma = median_heuristic(np.asarray(model["centers"]))
    assert model["kernel"]["sigma"] == sigma
    sigmas = [float(v) for v in (tmp_path / "sigmas").read_text().split()]
    assert sigmas == [sigma] * 15


@pytest.mark.parametrize("solver", ["bfgs", "closed-form"])
def test_cross_validation_resolves_the_median_sigma_once(tmp_path,
                                                         monkeypatch, solver):
    # the final fit takes the folds' sigma instead of a second median
    calls = []

    def spying_median(prod, pts):
        calls.append(len(pts))
        return real_median(prod, pts)

    real_median = kernels._median_sq_dist
    monkeypatch.setattr(kernels, "_median_sq_dist", spying_median)
    assert main(["fit", "--family", "kulsif", "--solver", solver, "--alpha",
                 "cv", "--n", "12", "--m", "10",
                 "--out", str(tmp_path / "cv")]) == 0
    assert calls == [22]


def test_unconverged_fold_fits_are_counted_and_warned(tmp_path, capsys):
    # 3 of the 15 fold fits end max_iter; the selection is unchanged
    out = tmp_path / "cv"
    assert main(["fit", "--family", "poly", "--k", "6", "--n", "20",
                 "--m", "20", "--seed", "3", "--alpha", "cv",
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["cv_unconverged"] == [[10.0, 0], [0.1, 2], [0.001, 1]]
    assert metrics["alpha"] == 0.001
    assert metrics["status"] == "converged"
    assert capsys.readouterr().err == (
        "warning: cross-validation fold fits ended unconverged: "
        "2 of 5 at alpha 0.1, 1 of 5 at alpha 0.001\n")
    assert main(["fit", "--family", "lr", "--n", "10", "--m", "10",
                 "--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text())[
        "cv_unconverged"] is None


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_serial_and_forked_fits_write_the_same_bytes(tmp_path, usable_cpus,
                                                     capsys):
    runs = {}
    for cpus in (1, 3):
        usable_cpus(cpus)
        out = tmp_path / str(cpus)
        assert main(["fit", "--family", "poly", "--k", "6", "--n", "20",
                     "--m", "20", "--seed", "3", "--alpha", "cv",
                     "--out", str(out / "cv")]) == 0
        assert main(["fig2", "--sizes", "10", "--alphas", "1e-6,0.01",
                     "--n-seeds", "3", "--grid-n", "21",
                     "--out", str(out / "fig2")]) == 0
        runs[cpus] = (_tree_bytes(out), capsys.readouterr())
    assert runs[1] == runs[3]
    assert "warning: cross-validation" in runs[1][1].err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("error, code", [(cli.FitError, 2), (ValueError, 1)])
def test_a_failing_fold_fit_fails_the_command(tmp_path, monkeypatch, capsys,
                                              usable_cpus, error, code):
    def failing_fit(samples, loss, kernel, alpha, **kwargs):
        if alpha == 0.1:
            raise error(f"forced at alpha {alpha}")
        return real_fit(samples, loss, kernel, alpha, **kwargs)

    real_fit = dre.fit
    monkeypatch.setattr(dre, "fit", failing_fit)
    usable_cpus(2)
    assert main(["fit", "--family", "lr", "--alpha", "cv", "--n", "10",
                 "--m", "10", "--out", str(tmp_path / "cv")]) == code
    prefix = "numerical failure" if code == 2 else "error"
    assert capsys.readouterr().err == f"{prefix}: forced at alpha 0.1\n"


@pytest.mark.parametrize("solver", ["bfgs", "closed-form"])
def test_default_sigma_is_the_median_of_the_pooled_points(tmp_path, solver):
    args = ["fit", "--family", "kulsif", "--solver", solver, "--n", "30",
            "--m", "20", "--seed", "3", "--alpha", "0.01"]
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    centers = json.loads((tmp_path / "default" / "model.json").read_text())[
        "centers"]
    sigma = median_heuristic(np.asarray(centers))
    assert main(args + ["--sigma", repr(sigma),
                        "--out", str(tmp_path / "explicit")]) == 0
    for name in ("model.json", "metrics.json"):
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "explicit" / name).read_bytes())


def test_metrics_report_the_final_gradient_norm(tmp_path, monkeypatch):
    results = []

    def spying_bfgs(obj, x0, **kwargs):
        results.append(optim.bfgs(obj, x0, **kwargs))
        return results[-1]

    monkeypatch.setattr(dre, "bfgs", spying_bfgs)
    out = tmp_path / "fit"
    assert main(["fit", "--family", "lr", "--n", "20", "--m", "20",
                 "--grad-tol", "1e-6", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["status"] == "converged"
    assert metrics["grad_norm"] == results[-1].grad_norm < 1e-6
    # and it is the gradient norm of the written model's training risk
    model = json.loads((out / "model.json").read_text())
    centers = np.asarray(model["centers"])
    g_matrix = gram(KernelSpec(kind="gaussian",
                               sigma=model["kernel"]["sigma"]),
                    centers, centers)
    _, grad = empirical_risk(family_loss("lr"), g_matrix,
                             np.repeat([1.0, -1.0], 20),
                             np.asarray(model["coeffs"]), model["alpha"])
    assert float(np.max(np.abs(grad))) == pytest.approx(metrics["grad_norm"],
                                                        rel=1e-3)
    # the closed form has no optimizer gradient to report
    assert main(["fit", "--family", "kulsif", "--solver", "closed-form",
                 "--n", "20", "--m", "20", "--out", str(tmp_path / "cf")]) == 0
    assert json.loads((tmp_path / "cf" / "metrics.json").read_text())[
        "grad_norm"] is None


@pytest.mark.parametrize("grid", ["flag", "config"])
def test_empty_cv_grid_is_a_usage_error(tmp_path, capsys, grid):
    args = ["fit", "--family", "lr", "--alpha", "cv", "--n", "10", "--m",
            "10", "--out", str(tmp_path / "cv")]
    if grid == "flag":
        args += ["--cv-alphas", ""]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cv_alphas": []}))
        args += ["--config", str(cfg)]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: cross-validation needs a nonempty alpha grid\n")


@pytest.mark.parametrize("solver", ["bfgs", "closed-form"])
def test_coincident_points_are_a_usage_error(tmp_path, capsys, solver):
    same = tmp_path / "same.csv"
    np.savetxt(same, np.full(6, 0.25), delimiter=",")
    assert main(["fit", "--family", "kulsif", "--solver", solver,
                 "--data-p", str(same), "--data-q", str(same),
                 "--out", str(tmp_path / "fit")]) == 1
    assert capsys.readouterr().err == (
        "error: all points coincide; median distance is zero\n")


@pytest.mark.parametrize("folds", ["0", "1"])
def test_fewer_than_two_folds_is_a_usage_error(tmp_path, capsys, folds):
    assert main(["fit", "--family", "lr", "--alpha", "cv", "--folds", folds,
                 "--n", "10", "--m", "10", "--out", str(tmp_path / "cv")]) == 1
    assert capsys.readouterr().err == (
        f"error: cross-validation needs at least 2 folds, got {folds}\n")


def test_unconverged_fit_warns_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "fit"
    assert main(["fit", "--family", "ew", "--alpha", "0", "--n", "5",
                 "--m", "5", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["status"] in ("max_iter", "line_search_failed")
    assert capsys.readouterr().err == (
        f"warning: fit ended {metrics['status']} after "
        f"{metrics['iterations']} iterations\n")
    assert main(["fit", "--family", "kulsif", "--n", "5", "--m", "5",
                 "--out", str(out)]) == 0
    assert json.loads((out / "metrics.json").read_text())["status"] == (
        "converged")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n_seeds", ["0", "-1"])
def test_fig2_needs_a_replicate(tmp_path, capsys, n_seeds):
    assert main(["fig2", "--n-seeds", n_seeds,
                 "--out", str(tmp_path / "f2")]) == 1
    assert capsys.readouterr().err == (
        f"error: n_seeds must be at least 1, got {n_seeds}\n")


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "kulsif", "solver": "closed-form", "alpha": 0.1,
        "n": 5, "m": 6, "out": str(tmp_path / "from-config")}))
    assert main(["fit", "--config", str(cfg), "--n", "7"]) == 0
    metrics = json.loads(
        (tmp_path / "from-config" / "metrics.json").read_text())
    assert metrics["n"] == 7 and metrics["m"] == 6


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "kulsif", "bandwidth": 2.0}))
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 1


def test_eval_model_file_errors(tmp_path, capsys):
    assert main(["eval", "--model", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "kulsif"}))
    assert main(["eval", "--model", str(bad),
                 "--out", str(tmp_path / "y")]) == 1
    # a gaussian model without a usable bandwidth is refused before any
    # Gram is formed
    assert main(["fit", "--family", "kulsif", "--solver", "closed-form",
                 "--n", "5", "--m", "5", "--out", str(tmp_path / "fit")]) == 0
    doc = json.loads((tmp_path / "fit" / "model.json").read_text())
    for sigma in (None, "wide", -1.0):
        doc["kernel"]["sigma"] = sigma
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["eval", "--model", str(bad),
                     "--out", str(tmp_path / "z")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: gaussian kernel needs sigma > 0")


def test_closed_form_requires_kulsif(tmp_path):
    assert main(["fit", "--family", "lr", "--solver", "closed-form",
                 "--out", str(tmp_path / "x")]) == 1


def test_check_command(tmp_path, capsys):
    out = tmp_path / "chk"
    assert main(["check", "--out", str(out)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 7
    assert all(l.startswith("[PASS]") for l in lines)
    report = json.loads((out / "check_report.json").read_text())
    assert report["passed"] is True


def test_fig_commands_reduced(tmp_path):
    f1 = tmp_path / "f1"
    assert main(["fig1", "--quad-nodes", "201", "--max-iter", "150",
                 "--grid-n", "101", "--out", str(f1)]) == 0
    summary = json.loads((f1 / "fig1_summary.json").read_text())
    assert sorted(summary["ranking"]) == sorted(
        ["lr", "kulsif", "poly1", "poly6", "ew"])
    assert read_header(f1 / "fig1_curves.csv")[:2] == ["x", "beta"]

    f2 = tmp_path / "f2"
    assert main(["fig2", "--sizes", "10", "--alphas", "0.01",
                 "--n-seeds", "2", "--grid-n", "21", "--max-iter", "40",
                 "--out", str(f2)]) == 0
    header = read_header(f2 / "fig2_curves.csv")
    assert "betahat_kulsif_n10_a0.01" in header
    assert "betahat_ew_n10_a0.01" in header

    f3 = tmp_path / "f3"
    assert main(["fig3", "--n-src", "50", "--n-tgt", "50",
                 "--quad-nodes", "201", "--l2-nodes", "501",
                 "--max-iter", "150", "--grid-n", "101",
                 "--out", str(f3)]) == 0
    summary = json.loads((f3 / "fig3_summary.json").read_text())
    assert set(summary["l2p_sq"]) == {"uniform", "exact", "ew", "lr"}


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["loss-show", "--family", "ew", "--out", str(out)]) == 0
        assert main(["fit", "--family", "kulsif", "--solver", "closed-form",
                     "--n", "10", "--m", "10", "--out", str(out / "fit")]) == 0
    assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()
    assert ((a / "fit" / "model.json").read_bytes()
            == (b / "fit" / "model.json").read_bytes())


def _pack_wheel(project, src, dist_dir):
    """Pack the package under ``src`` into a ``py3-none-any`` wheel whose
    metadata and entry points come from the ``[project]`` table."""
    name, version = project["name"], project["version"]
    info = f"{name}-{version}.dist-info"
    files = {f"{name}/{py.name}": py.read_bytes()
             for py in sorted((src / name).glob("*.py"))}
    files[f"{info}/METADATA"] = (f"Metadata-Version: 2.1\nName: {name}\n"
                                 f"Version: {version}\n").encode()
    files[f"{info}/WHEEL"] = (b"Wheel-Version: 1.0\nGenerator: test_cli\n"
                              b"Root-Is-Purelib: true\nTag: py3-none-any\n")
    files[f"{info}/entry_points.txt"] = "".join(
        ["[console_scripts]\n"]
        + [f"{cmd} = {target}\n"
           for cmd, target in project["scripts"].items()]).encode()
    record = []
    for path, data in files.items():
        digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest())
        record.append(f"{path},sha256={digest.rstrip(b'=').decode()},"
                      f"{len(data)}\n")
    record.append(f"{info}/RECORD,,\n")
    files[f"{info}/RECORD"] = "".join(record).encode()
    wheel = dist_dir / f"{name}-{version}-py3-none-any.whl"
    with zipfile.ZipFile(wheel, "w") as zf:
        for path, data in files.items():
            zf.writestr(path, data)
    return wheel


def test_console_script_installed(tmp_path):
    """pip installs the declared ``ratioloss`` command from a wheel of this
    checkout; run bare, the installed command is a usage error (exit 1)."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project.get("scripts") == {"ratioloss": "ratioloss.cli:main"}, (
        "pyproject.toml [project.scripts] must declare "
        "ratioloss = \"ratioloss.cli:main\"")

    dist, target = tmp_path / "dist", tmp_path / "target"
    dist.mkdir()
    wheel = _pack_wheel(project, root / "src", dist)
    env = dict(os.environ, PYTHONPATH=str(target), TMPDIR=str(tmp_path))
    pip = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--isolated", "--no-index",
         "--no-deps", "--no-cache-dir", "--disable-pip-version-check",
         "--target", str(target), str(wheel)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert pip.returncode == 0, pip.stderr

    where = subprocess.run(
        [sys.executable, "-c", "import ratioloss; print(ratioloss.__file__)"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert where.returncode == 0, where.stderr
    installed = Path(where.stdout.strip()).resolve().parent
    assert installed == (target / "ratioloss").resolve(), installed

    exe = target / "bin" / "ratioloss"
    assert exe.is_file(), "pip wrote no ratioloss console script"
    proc = subprocess.run([str(exe)], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("usage: ratioloss"), proc.stderr
