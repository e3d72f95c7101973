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

from ratioloss import (KernelSpec, cli, dre, family_loss, figure1, figure3,
                       gram, kernels, median_heuristic, optim)
from ratioloss.cli import main

from oracles import empirical_risk


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


def test_eval_reads_the_compact_model_back(tmp_path):
    # model.json is one line, the other JSON outputs stay indented; an
    # indented copy of the model evaluates to the same bytes
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--family", "lr", "--n", "30", "--m", "30",
                 "--seed", "2", "--out", str(fit_dir)]) == 0
    text = (fit_dir / "model.json").read_text()
    model = json.loads(text)
    assert text == json.dumps(model, sort_keys=True) + "\n"
    assert set(model) == {"family", "k", "alpha", "kernel", "centers",
                          "coeffs"}
    assert (fit_dir / "metrics.json").read_text().startswith("{\n  ")
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(model, sort_keys=True, indent=2))
    for name, path in (("compact", fit_dir / "model.json"),
                       ("indented", indented)):
        assert main(["eval", "--model", str(path), "--pair", "piecewise",
                     "--out", str(tmp_path / name)]) == 0
    for name in ("eval.json", "predictions.csv"):
        assert ((tmp_path / "compact" / name).read_bytes()
                == (tmp_path / "indented" / name).read_bytes())


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


def _n2000_model(path):
    """A model.json of a kulsif ratio model on 2000 centers in [0, 1];
    its ratio map is the identity, so every bit of a score is written."""
    rng = np.random.default_rng(8)
    path.write_text(json.dumps({
        "family": "kulsif", "alpha": 1e-3,
        "kernel": {"kind": "gaussian", "sigma": 0.3},
        "centers": rng.uniform(0.0, 1.0, (2000, 1)).tolist(),
        "coeffs": rng.uniform(0.0, 1e-3, 2000).tolist()}))
    return path


def test_eval_forms_no_gram_block_of_a_quarter_map(tmp_path, monkeypatch):
    # 2001 x 2000 is 32 MB; blocks of 64 rows are 1,024,000 bytes
    model = _n2000_model(tmp_path / "model.json")
    shapes = []
    for mod in (kernels, dre):  # every binding a prediction might call
        def spy(spec, x, y, out=None, inner=mod.gram):
            k = inner(spec, x, y, out=out)
            shapes.append(k.shape)
            return k
        monkeypatch.setattr(mod, "gram", spy)
    assert main(["eval", "--model", str(model), "--grid-n", "2001",
                 "--pair", "piecewise", "--out", str(tmp_path / "ev")]) == 0
    assert sum(rows for rows, _ in shapes) == 2001
    assert max(rows * cols * 8 for rows, cols in shapes) < (
        kernels.MAPPED_BYTES // 4)


@pytest.mark.skipif(dre._openblas_threads() is None,
                    reason="numpy exports no OpenBLAS thread control")
def test_eval_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    model = _n2000_model(tmp_path / "model.json")
    get, set_ = dre._openblas_threads()
    threads = get()
    written = []
    try:
        for n_threads in (1, 2):
            set_(n_threads)
            out = tmp_path / f"ev{n_threads}"
            assert main(["eval", "--model", str(model), "--grid-n", "2001",
                         "--pair", "piecewise", "--out", str(out)]) == 0
            written.append((out / "predictions.csv").read_bytes())
    finally:
        set_(threads)
    assert written[0] == written[1]


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

    def spying_median(pts, square=None):
        calls.append(len(pts))
        return real_median(pts, square)

    real_median = kernels._median_sq_dist
    monkeypatch.setattr(kernels, "_median_sq_dist", spying_median)
    assert main(["fit", "--family", "kulsif", "--solver", solver, "--alpha",
                 "cv", "--n", "12", "--m", "10",
                 "--out", str(tmp_path / "cv")]) == 0
    assert calls == [22]


def test_unconverged_fold_fits_are_counted_and_warned(tmp_path, capsys):
    # a cap of 6 Newton steps stops 2 of the 15 fold fits short; the
    # selection is the uncapped one, and the final fit converges in 4
    out = tmp_path / "cv"
    assert main(["fit", "--family", "poly", "--k", "1", "--n", "20",
                 "--m", "20", "--seed", "3", "--alpha", "cv",
                 "--max-iter", "6", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["cv_unconverged"] == [[10.0, 1], [0.1, 0], [0.001, 1]]
    assert metrics["alpha"] == 0.1
    assert metrics["status"] == "converged"
    assert capsys.readouterr().err == (
        "warning: cross-validation fold fits ended unconverged: "
        "1 of 5 at alpha 10, 1 of 5 at alpha 0.001\n")
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
        assert main(["fit", "--family", "poly", "--k", "1", "--n", "20",
                     "--m", "20", "--seed", "3", "--alpha", "cv",
                     "--max-iter", "6", "--out", str(out / "cv")]) == 0
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
    _, grad = empirical_risk(family_loss("lr"), g_matrix, 20,
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
    # ew at alpha 1e-5 and n = m = 200 ended max_iter after 300
    # iterations from the identity start, and converges from the penalty's
    for args in (["--family", "kulsif", "--n", "5", "--m", "5"],
                 ["--family", "ew", "--alpha", "1e-5", "--n", "200",
                  "--m", "200"]):
        assert main(["fit", *args, "--out", str(out)]) == 0
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


@pytest.mark.parametrize("command,config,err", [
    ("fit", {"n": 20.9}, "expected an integer, got 20.9"),
    ("fit", {"m": True}, "expected an integer, got True"),
    ("fit", {"degree": 2.5, "kernel": "polynomial"},
     "expected an integer, got 2.5"),
    ("fig2", {"sizes": [10, 20.5]}, "expected an integer, got 20.5"),
    ("fig2", {"sizes": 10}, "expected a list, got 10"),
])
def test_config_integer_options_are_not_truncated(tmp_path, capsys, command,
                                                  config, err):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
    if command == "fit":
        args += ["--family", "kulsif", "--solver", "closed-form"]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {err}\n"


def test_config_integer_options_take_integers_and_integer_strings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "kulsif", "solver": "closed-form",
                               "n": "7", "m": 6}))
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "fit")]) == 0
    metrics = json.loads((tmp_path / "fit" / "metrics.json").read_text())
    assert (metrics["n"], metrics["m"]) == (7, 6)


@pytest.mark.parametrize("command,config,err", [
    ("fit", {"alpha": True}, "expected a number, got True"),
    ("fit", {"offset": True, "kernel": "polynomial"},
     "expected a number, got True"),
    ("fit", {"cv_alphas": [1.0, False], "alpha": "cv"},
     "expected a number, got False"),
    ("fit", {"sigma": [1.0]}, "expected a number, got [1.0]"),
    ("fig2", {"alphas": [0.01, True]}, "expected a number, got True"),
    ("fit", {"offset": float("nan"), "kernel": "polynomial"},
     "polynomial kernel needs a finite offset, got nan"),
])
def test_config_float_options_refuse_bools(tmp_path, capsys, command,
                                           config, err):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "x")]
    if command == "fit":
        args += ["--family", "kulsif", "--solver", "closed-form"]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not (tmp_path / "x").exists()


def test_config_float_options_take_numbers_and_numeric_strings(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "kulsif", "solver": "closed-form",
                               "kernel": "polynomial", "alpha": "0.5",
                               "offset": 2, "n": 5, "m": 5}))
    assert main(["fit", "--config", str(cfg),
                 "--out", str(tmp_path / "fit")]) == 0
    model = json.loads((tmp_path / "fit" / "model.json").read_text())
    assert (model["alpha"], model["kernel"]["offset"]) == (0.5, 2.0)


def test_refused_fit_builds_no_gram_and_leaves_no_directory(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    calls = []
    monkeypatch.setattr(dre, "median_gram",
                        lambda *args: calls.append(args))
    out = tmp_path / "refused"
    assert main(["fit", "--family", "kulsif", "--n", "10", "--m", "10",
                 "--max-iter", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: need max_iter >= 0 and grad_tol >= 0, got -1 and 1e-08\n")
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("args,solver", [
    (["--family", "ew"], "newton"),
    (["--family", "ew", "--alpha", "0"], "bfgs"),
    (["--family", "kulsif", "--solver", "closed-form"], "closed_form"),
])
def test_metrics_name_the_solver_that_ran(tmp_path, args, solver):
    # which fits take which solver is pinned in test_dre
    out = tmp_path / "fit"
    assert main(["fit", "--n", "10", "--m", "10", "--max-iter", "20", *args,
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["solver"] == solver


@pytest.mark.parametrize("args,h0", [
    (["--family", "lr", "--alpha", "0.1"], "penalty"),
    (["--family", "ew", "--alpha", "0"], "identity"),
    (["--family", "ew"], None),
    (["--family", "kulsif", "--solver", "closed-form"], None),
])
def test_metrics_report_the_bfgs_start_and_objective_evaluations(
        tmp_path, monkeypatch, args, h0):
    # h0 is the start a BFGS fit ended on, the identity only at alpha 0
    # here; Newton and the closed form report null for both keys
    results = []

    def spying_bfgs(obj, x0, **kwargs):
        results.append(optim.bfgs(obj, x0, **kwargs))
        return results[-1]

    monkeypatch.setattr(dre, "bfgs", spying_bfgs)
    out = tmp_path / "fit"
    assert main(["fit", "--n", "20", "--m", "20", *args,
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["h0"] == h0
    if h0 is None:
        assert results == [] and metrics["f_evals"] is None
    else:
        assert metrics["f_evals"] == results[-1].f_evals > metrics[
            "iterations"]


@pytest.mark.parametrize("n,seed", [
    *((100, seed) for seed in (31, 139, 201, 203, 205, 272, 329, 336, 458,
                               465, 468, 512, 525, 533, 535, 599)),
    (50, 2), (20, 0)])
def test_poly6_fits_that_ended_max_iter_under_bfgs_converge(tmp_path, capsys,
                                                           n, seed):
    # BFGS ran each of these fits to max_iter, with one Q score at the
    # kink of the loss; projected Newton holds that coordinate at its
    # bound instead
    out = tmp_path / "fit"
    assert main(["fit", "--family", "poly", "--k", "6", "--n", str(n),
                 "--m", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert (metrics["status"], metrics["solver"]) == ("converged", "newton")
    assert metrics["grad_norm"] < 1e-8
    assert capsys.readouterr().err == ""


def test_infinite_sigma_is_a_usage_error(tmp_path, capsys):
    # inf would be written to model.json as Infinity, which is not JSON
    out = tmp_path / "fit"
    assert main(["fit", "--family", "kulsif", "--n", "5", "--m", "5",
                 "--sigma", "inf", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: gaussian kernel needs a finite sigma > 0 or 'median'\n")
    assert not out.exists()
    assert main(["fit", "--family", "kulsif", "--n", "5", "--m", "5",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "model.json").read_text())
    doc["kernel"]["sigma"] = float("inf")
    bad = tmp_path / "inf.json"
    bad.write_text(json.dumps(doc))
    assert "Infinity" in bad.read_text()
    assert main(["eval", "--model", str(bad),
                 "--out", str(tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == (
        "error: gaussian kernel needs a finite sigma > 0 or 'median'\n")
    assert not (tmp_path / "eval").exists()


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
            "error: gaussian kernel needs a finite sigma > 0")
    # a malformed kernel or coefficient vector is a usage error that
    # names the field, not a traceback or a raw matmul message
    good = json.loads((tmp_path / "fit" / "model.json").read_text())
    for field, value in (("kernel", {"sigma": 1.0}), ("kernel", "gaussian"),
                         ("coeffs", good["coeffs"][:-1])):
        bad.write_text(json.dumps(dict(good, **{field: value})))
        capsys.readouterr()
        assert main(["eval", "--model", str(bad),
                     "--out", str(tmp_path / "z")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model file's ") and repr(field) in err
    # a fractional polynomial degree is refused, not truncated to an integer
    bad.write_text(json.dumps(dict(good, kernel={
        "kind": "polynomial", "sigma": None, "degree": 2.5, "offset": 1.0})))
    capsys.readouterr()
    assert main(["eval", "--model", str(bad),
                 "--out", str(tmp_path / "z")]) == 1
    assert capsys.readouterr().err == (
        "error: polynomial kernel needs an integer degree >= 1\n")
    # and so is a non-finite offset, before --out exists
    for offset in (float("nan"), float("inf")):
        bad.write_text(json.dumps(dict(good, kernel={
            "kind": "polynomial", "sigma": None, "degree": 2,
            "offset": offset})))
        assert main(["eval", "--model", str(bad),
                     "--out", str(tmp_path / "z")]) == 1
        assert capsys.readouterr().err == (
            f"error: polynomial kernel needs a finite offset, got {offset}\n")
    assert not (tmp_path / "z").exists()


def test_write_json_bytes(tmp_path):
    """numpy scalars and arrays, tuples, NaN and inf, nested and
    key-sorted, with a trailing newline."""
    obj = {"f64": np.float64(0.1), "f32": np.float32(0.25),
           "i": np.int64(-3), "b": np.bool_(False), "a0": np.array(2.5),
           "a1": np.array([1, 2]), "a2": np.array([[0.5, np.nan],
                                                   [-np.inf, np.inf]]),
           "ab": np.array([True, False]), "t": (1, np.float64(-0.0), "x"),
           "nan": float("nan"), "none": None,
           "nest": {"z": [np.arange(2.0), (np.int32(7),)],
                    "a": {"y": np.bool_(True)}}}
    cli._write_json(str(tmp_path / "w.json"), obj)
    assert (tmp_path / "w.json").read_text() == """\
{
  "a0": 2.5,
  "a1": [
    1,
    2
  ],
  "a2": [
    [
      0.5,
      NaN
    ],
    [
      -Infinity,
      Infinity
    ]
  ],
  "ab": [
    true,
    false
  ],
  "b": false,
  "f32": 0.25,
  "f64": 0.1,
  "i": -3,
  "nan": NaN,
  "nest": {
    "a": {
      "y": true
    },
    "z": [
      [
        0.0,
        1.0
      ],
      [
        7
      ]
    ]
  },
  "none": null,
  "t": [
    1,
    -0.0,
    "x"
  ]
}
"""


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
    fits = figure1(quad_nodes=201, max_iter=150)["fits"]
    assert summary["status"] == {n: f.status for n, f in fits.items()}
    assert summary["iterations"] == {n: f.iterations for n, f in fits.items()}

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
    pop = figure3(n_src=50, quad_nodes=201, l2_nodes=501,
                  max_iter=150)["population_fits"]
    assert summary["population_status"] == {
        n: f.status for n, f in pop.items()}
    assert summary["population_iterations"] == {
        n: f.iterations for n, f in pop.items()}


def test_fig2_repeated_size_keeps_both_columns(tmp_path):
    # columns are (name, values) pairs, so a repeated cell name is written
    # twice rather than collapsed
    out = tmp_path / "f2"
    assert main(["fig2", "--sizes", "10,10", "--alphas", "0.01",
                 "--n-seeds", "1", "--grid-n", "5", "--max-iter", "40",
                 "--out", str(out)]) == 0
    lines = (out / "fig2_curves.csv").read_text().splitlines()
    assert lines[0] == ("x,beta_exact,betahat_kulsif_n10_a0.01,"
                        "betahat_kulsif_n10_a0.01,betahat_ew_n10_a0.01,"
                        "betahat_ew_n10_a0.01")
    assert len(lines) == 6
    assert all(len(line.split(",")) == 6 for line in lines[1:])


@pytest.mark.parametrize("alpha", ["nan", "inf", "-1"])
def test_non_finite_or_negative_alpha_is_a_usage_error(tmp_path, capsys,
                                                        alpha):
    assert main(["fit", "--family", "kulsif", "--solver", "closed-form",
                 "--alpha", alpha, "--out", str(tmp_path / "fit")]) == 1
    assert capsys.readouterr().err == (
        "error: alpha must be finite and nonnegative, or 'cv'\n")
    assert main(["fig3", "--alpha", alpha, "--n-src", "20", "--n-tgt", "20",
                 "--quad-nodes", "101", "--l2-nodes", "101", "--max-iter", "20",
                 "--grid-n", "5", "--out", str(tmp_path / "f3")]) == 1
    assert capsys.readouterr().err == (
        "error: alpha must be finite and nonnegative\n")


@pytest.mark.parametrize("noise", ["nan", "inf", "-0.5"])
def test_non_finite_or_negative_noise_is_a_usage_error(tmp_path, capsys,
                                                        noise):
    out = tmp_path / "f3"
    assert main(["fig3", "--noise", noise, "--n-src", "20", "--n-tgt", "20",
                 "--quad-nodes", "101", "--l2-nodes", "101", "--max-iter",
                 "20", "--grid-n", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: noise_sigma must be finite and nonnegative\n")
    assert not (out / "fig3_summary.json").exists()


@pytest.mark.parametrize("args,error", [
    (["loss-show", "--family", "poly", "--k", "nan"],
     "k must be finite, got nan"),
    (["loss-show", "--family", "lr", "--c1", "nan"],
     "c1 and c2 must be finite, got nan and 0.0"),
    (["loss-show", "--family", "kulsif", "--c2", "inf"],
     "c1 and c2 must be finite, got 0.0 and inf"),
    (["fit", "--family", "lr", "--k", "nan", "--n", "10", "--m", "10"],
     "k must be finite, got nan"),
    (["fit", "--family", "poly", "--k", "inf", "--n", "10", "--m", "10"],
     "k must be finite, got inf"),
    (["fit", "--family", "poly", "--k", "nan", "--n", "10", "--m", "10"],
     "k must be finite, got nan"),
    (["fit", "--family", "lr", "--kernel", "polynomial", "--offset", "nan",
      "--n", "10", "--m", "10"],
     "polynomial kernel needs a finite offset, got nan"),
    (["fit", "--family", "lr", "--kernel", "polynomial", "--offset", "inf",
      "--n", "10", "--m", "10"],
     "polynomial kernel needs a finite offset, got inf"),
])
def test_non_finite_k_c1_or_c2_is_a_usage_error(tmp_path, capsys, args,
                                                 error):
    # each used to run to NaN or Infinity outputs, or, for poly k nan and
    # a non-finite offset, to fail with an error that did not name the
    # option
    out = tmp_path / "x"
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fit", "--family", "kulsif", "--n", "10", "--m", "10", "--grad-tol", "nan"],
    ["fit", "--family", "kulsif", "--n", "10", "--m", "10", "--grad-tol", "-1"],
    ["fit", "--family", "kulsif", "--n", "10", "--m", "10", "--max-iter", "-3"],
    ["fig1", "--quad-nodes", "101", "--grid-n", "5", "--max-iter", "-3"],
    ["fig2", "--n-seeds", "1", "--sizes", "10", "--alphas", "1",
     "--max-iter", "-3"],
    ["fig3", "--n-src", "20", "--n-tgt", "20", "--quad-nodes", "101",
     "--l2-nodes", "101", "--grid-n", "5", "--max-iter", "-3"],
])
def test_negative_max_iter_or_bad_grad_tol_is_a_usage_error(tmp_path, capsys,
                                                             args):
    assert main(args + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need max_iter >= 0 and grad_tol >= 0")
    assert not (tmp_path / "x").exists()


def test_eval_refuses_an_empty_csv(tmp_path, capsys):
    assert main(["fit", "--family", "kulsif", "--solver", "closed-form",
                 "--n", "5", "--m", "5", "--out", str(tmp_path / "fit")]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["eval", "--model", str(tmp_path / "fit" / "model.json"),
                 "--data", str(empty), "--out", str(tmp_path / "ev")]) == 1
    assert capsys.readouterr().err == f"error: {empty} holds no data rows\n"


def test_even_quad_nodes_is_a_usage_error(tmp_path, capsys):
    assert main(["fig1", "--quad-nodes", "4", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: Simpson rule needs an odd node count >= 3, got 4\n")


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
