"""Command line interface.

Subcommands: loss-show, fit, eval, fig1, fig2, fig3, check.  Options can
be supplied on the command line or through a flat JSON --config file;
explicit command line flags win.  Exit codes: 0 success, 1 usage or
configuration error, 2 numerical failure, 3 identity-suite failure.

All outputs are deterministic for a given seed on a given CPU set: JSON
is written with sorted keys and CSV floats with repr, so reruns are
byte-identical.  OpenBLAS runs one thread per usable CPU, and some of
its solves round differently with another thread count: dual-Newton ew
fits and fig3's dual solve write other bytes on one CPU than on two.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Callable, Optional

import numpy as np

from .checks import run_all
from .dre import (FitError, RatioModel, SampleSet, cross_validate_alpha, fit,
                  kulsif_fit_closed_form, predict_ratio)
from .figures import FIGURE1_FAMILIES, SUP_INTERVAL, figure1, figure2, figure3
from .generators import DOMAIN_EPS, FAMILY_NAMES, RATIO_CAP
from .kernels import MEDIAN, KernelSpec, as_points
from .losses import convexity_margin, family_loss
from .synth import (Rng, default_pair, gaussian_pair, piecewise_beta,
                    sample_piecewise, target_function)


# ---------------------------------------------------------------- helpers

def _json_default(obj):
    """numpy arrays and scalars as python lists and scalars."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: str, obj, indent=2) -> None:
    # json.dumps without indent runs json's C encoder; json.dump never does
    text = json.dumps(obj, sort_keys=True, indent=indent, default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, columns: list) -> None:
    """columns: (name, values) pairs in order; names may repeat."""
    cols = [np.asarray(c, dtype=float) for _, c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("csv columns have unequal lengths")
    with open(path, "w") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _load_points(path: str) -> np.ndarray:
    with warnings.catch_warnings():
        # an empty file is refused below, by name
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
    if pts.size == 0:
        raise ValueError(f"{path} holds no data rows")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{path} contains non-finite values")
    return pts


# ------------------------------------------------------- option plumbing

def _list_of(conv: Callable) -> Callable[[object], list]:
    """A comma-separated string (blank items skipped) or a JSON list."""
    def parse(x):
        if isinstance(x, str):
            x = [v for v in x.split(",") if v.strip()]
        if not isinstance(x, list):
            raise ValueError(f"expected a list, got {x!r}")
        return [conv(v) for v in x]
    return parse


def _int(x) -> int:
    """A JSON integer that is not a bool, or an integer string."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _float(x) -> float:
    """A JSON number that is not a bool, or a numeric string."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


def _alpha(x):
    """Either the literal 'cv' or a nonnegative float."""
    if isinstance(x, str) and x.strip() == "cv":
        return "cv"
    v = _float(x)
    if not 0.0 <= v < np.inf:
        raise ValueError("alpha must be finite and nonnegative, or 'cv'")
    return v


def _choice(*names: str) -> Callable[[object], str]:
    def conv(x):
        s = str(x)
        if s not in names:
            raise ValueError(f"expected one of {names}, got {s!r}")
        return s
    return conv


_REQUIRED = object()

# dest -> (converter, default, help); default _REQUIRED means mandatory.
SCHEMAS: dict = {
    "loss-show": {
        "out": (str, _REQUIRED, "output directory"),
        "family": (_choice(*FAMILY_NAMES), _REQUIRED, "loss family"),
        "k": (_float, 0.0, "poly exponent (poly family only)"),
        "c1": (_float, 0.0, "additive constant on both partial losses"),
        "c2": (_float, 0.0, "extra additive constant on the positive loss"),
        "beta_lo": (_float, 0.05, "smallest tabulated ratio value"),
        "beta_hi": (_float, 10.0, "largest tabulated ratio value"),
        "n": (_int, 101, "number of grid rows"),
    },
    "fit": {
        "out": (str, _REQUIRED, "output directory"),
        "family": (_choice(*FAMILY_NAMES), _REQUIRED, "loss family"),
        "k": (_float, 0.0, "poly exponent (poly family only)"),
        "alpha": (_alpha, 0.1, "ridge weight, or 'cv' for cross-validation"),
        "cv_alphas": (_list_of(_float), [10.0, 0.1, 1e-3], "alpha grid for 'cv'"),
        "folds": (_int, 5, "cross-validation folds"),
        "seed": (_int, 0, "sampling seed"),
        "pair": (_choice("piecewise", "gaussian"), "piecewise",
                 "synthetic pair to sample when no data files are given"),
        "n": (_int, 100, "numerator sample size"),
        "m": (_int, 100, "denominator sample size"),
        "data_p": (str, None, "CSV of numerator points (overrides --pair)"),
        "data_q": (str, None, "CSV of denominator points"),
        "kernel": (_choice("gaussian", "polynomial"), "gaussian", "kernel kind"),
        "sigma": (_float, None, "gaussian bandwidth (default: median heuristic)"),
        "degree": (_int, 3, "polynomial kernel degree"),
        "offset": (_float, 1.0, "polynomial kernel offset"),
        "solver": (_choice("bfgs", "closed-form"), "bfgs",
                   "bfgs fits iteratively, by BFGS or by projected Newton "
                   "on the dual, and metrics.json names the one that ran; "
                   "closed-form is available for the kulsif family"),
        "max_iter": (_int, 300, "iteration cap: BFGS iterations or Newton "
                     "steps"),
        "grad_tol": (_float, 1e-8, "gradient tolerance of the iterative "
                     "solver"),
    },
    "eval": {
        "out": (str, _REQUIRED, "output directory"),
        "model": (str, _REQUIRED, "model.json produced by fit"),
        "data": (str, None, "CSV of evaluation points"),
        "pair": (_choice("none", "piecewise", "gaussian"), "none",
                 "known pair to compare against"),
        "grid_lo": (_float, -1.0, "grid start when no data file is given"),
        "grid_hi": (_float, 1.0, "grid end"),
        "grid_n": (_int, 401, "grid size"),
    },
    "fig1": {
        "out": (str, _REQUIRED, "output directory"),
        "quad_nodes": (_int, 2001, "Simpson nodes per density piece"),
        "max_iter": (_int, 400, "Newton step cap of the population fits"),
        "grid_n": (_int, 801, "rows in the curve table"),
    },
    "fig2": {
        "out": (str, _REQUIRED, "output directory"),
        "seed": (_int, 0, "base seed"),
        "n_seeds": (_int, 10, "replicates per cell"),
        "sizes": (_list_of(_int), [10, 100], "total sample sizes m+n"),
        "alphas": (_list_of(_float), [1e-6, 1e-4, 1e-2, 1.0], "ridge weights"),
        "grid_lo": (_float, -3.0, "evaluation grid start"),
        "grid_hi": (_float, 3.0, "evaluation grid end"),
        "grid_n": (_int, 241, "evaluation grid size"),
        "max_iter": (_int, 200, "iteration cap of the ew fits: BFGS "
                     "iterations or Newton steps"),
    },
    "fig3": {
        "out": (str, _REQUIRED, "output directory"),
        "seed": (_int, 0, "sampling seed"),
        "n_src": (_int, 200, "source (denominator) sample size"),
        "n_tgt": (_int, 200, "ignored: fig3 draws no target sample; kept "
                  "so that existing invocations still parse, and due to "
                  "be removed"),
        "noise": (_float, 0.1, "observation noise level"),
        "degree": (_int, 5, "polynomial kernel degree"),
        "alpha": (_float, 1e-32, "ridge weight for the regressions"),
        "quad_nodes": (_int, 2001, "Simpson nodes for the population fits"),
        "l2_nodes": (_int, 10001, "Simpson nodes for the error integrals"),
        "max_iter": (_int, 400, "Newton step cap of the population fits"),
        "grid_n": (_int, 801, "rows in the curve table"),
    },
    "check": {
        "out": (str, None, "optional directory for check_report.json"),
        "seed": (_int, 0, "seed for the randomized identity checks"),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratioloss",
        description="Bregman-divergence losses and density ratio estimation")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None,
                       help="flat JSON file with option values")
        for dest, (_conv, default, help_text) in schema.items():
            flag = "--" + dest.replace("_", "-")
            suffix = "" if default in (_REQUIRED, None) else f" (default {default})"
            p.add_argument(flag, dest=dest, default=None,
                           help=help_text + suffix)
    return parser


def _resolve_options(command: str, args: argparse.Namespace) -> dict:
    schema = SCHEMAS[command]
    config = {}
    if args.config is not None:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("--config must contain a JSON object")
        unknown = sorted(set(config) - set(schema))
        if unknown:
            raise ValueError(f"unknown config keys for {command}: {unknown}")
    out = {}
    for dest, (conv, default, _help) in schema.items():
        raw = getattr(args, dest)
        if raw is None and dest in config:
            raw = config[dest]
        if raw is None:
            if default is _REQUIRED:
                raise ValueError(
                    f"missing required option --{dest.replace('_', '-')}")
            out[dest] = default
        else:
            out[dest] = conv(raw)
    return out


def _ensure_out(path: Optional[str]) -> Optional[str]:
    if path is not None:
        os.makedirs(path, exist_ok=True)
    return path


# ------------------------------------------------------------- commands

def cmd_loss_show(o: dict) -> int:
    if not 0.0 < o["beta_lo"] < o["beta_hi"]:
        raise ValueError("need 0 < beta-lo < beta-hi")
    if o["n"] < 2:
        raise ValueError("n must be at least 2")
    loss = family_loss(o["family"], k=o["k"], c1=o["c1"], c2=o["c2"])
    gen = loss.generator
    beta = np.linspace(o["beta_lo"], o["beta_hi"], o["n"])
    yhat = loss.ratio_map.g_inv(beta)
    lower, upper = convexity_margin(gen, loss.ratio_map, beta)
    out = _ensure_out(o["out"])
    _write_csv(os.path.join(out, "loss.csv"), [
        ("yhat", yhat), ("ell_pos", loss.ell_pos(yhat)),
        ("ell_neg", loss.ell_neg(yhat)), ("eta_hat", loss.inv_link(yhat)),
        ("beta_hat", beta), ("slack_lower", lower), ("slack_upper", upper)])
    _write_json(os.path.join(out, "loss.json"),
                {"family": o["family"], "k": o["k"], "c1": o["c1"],
                 "c2": o["c2"], "beta_lo": o["beta_lo"],
                 "beta_hi": o["beta_hi"], "n": o["n"],
                 "canonical": loss.ratio_map.is_canonical_for(gen)})
    return 0


def _fit_samples(o: dict, rng: Rng) -> SampleSet:
    if (o["data_p"] is None) != (o["data_q"] is None):
        raise ValueError("--data-p and --data-q must be given together")
    if o["data_p"] is not None:
        return SampleSet(xs_p=_load_points(o["data_p"]),
                         xs_q=_load_points(o["data_q"]))
    if o["n"] <= 0 or o["m"] <= 0:
        raise ValueError("sample sizes must be positive")
    if o["pair"] == "piecewise":
        spec = default_pair()
        return SampleSet(
            xs_p=sample_piecewise(spec, "p", o["n"], rng, name="cli/fit"),
            xs_q=sample_piecewise(spec, "q", o["m"], rng, name="cli/fit"))
    sampler, _ = gaussian_pair()
    return SampleSet(xs_p=sampler("p", o["n"], rng, name="cli/fit"),
                     xs_q=sampler("q", o["m"], rng, name="cli/fit"))


def _make_kernel(o: dict) -> KernelSpec:
    if o["kernel"] == "gaussian":
        sigma = MEDIAN if o["sigma"] is None else o["sigma"]
        return KernelSpec(kind="gaussian", sigma=sigma)
    return KernelSpec(kind="polynomial", degree=o["degree"], offset=o["offset"])


def cmd_fit(o: dict) -> int:
    rng = Rng(o["seed"])
    samples = _fit_samples(o, rng)
    kernel = _make_kernel(o)
    loss = family_loss(o["family"], k=o["k"])
    if o["solver"] == "closed-form" and o["family"] != "kulsif":
        raise ValueError("closed-form solver is only defined for kulsif")

    cv = None
    alpha = o["alpha"]
    if alpha == "cv":
        cv = cross_validate_alpha(
            samples, loss, kernel, alphas=o["cv_alphas"], n_folds=o["folds"],
            rng=rng, max_iter=o["max_iter"], grad_tol=o["grad_tol"])
        alpha, kernel = cv.alpha, cv.kernel  # the folds' resolved sigma
        short = [f"{count} of {o['folds']} at alpha {a:g}"
                 for a, count in cv.unconverged if count]
        if short:
            print("warning: cross-validation fold fits ended unconverged: "
                  + ", ".join(short), file=sys.stderr)
    if o["solver"] == "closed-form":
        model = kulsif_fit_closed_form(samples, kernel, alpha)
    else:
        model = fit(samples, loss, kernel, alpha, max_iter=o["max_iter"],
                    grad_tol=o["grad_tol"])
        if model.unconverged:
            print(f"warning: fit ended {model.status} after "
                  f"{model.iterations} iterations", file=sys.stderr)

    kernel = model.kernel  # a median sigma is resolved by the fit
    out = _ensure_out(o["out"])
    _write_json(os.path.join(out, "model.json"), {
        "family": o["family"], "k": o["k"], "alpha": alpha,
        "kernel": {"kind": kernel.kind, "sigma": kernel.sigma,
                   "degree": kernel.degree, "offset": kernel.offset},
        "centers": model.centers, "coeffs": model.coeffs,
    }, indent=None)  # the one output that grows with N
    _write_json(os.path.join(out, "metrics.json"), {
        "train_risk": model.train_risk, "status": model.status,
        "iterations": model.iterations, "grad_norm": model.grad_norm,
        "solver": model.solver, "f_evals": model.f_evals, "h0": model.h0,
        "n": len(samples.xs_p),
        "m": len(samples.xs_q), "seed": o["seed"],
        "alpha": alpha, "cv_table": None if cv is None else cv.table,
        "cv_unconverged": None if cv is None else cv.unconverged,
    })
    return 0


def cmd_eval(o: dict) -> int:
    with open(o["model"]) as fh:
        doc = json.load(fh)
    for key in ("family", "alpha", "kernel", "centers", "coeffs"):
        if key not in doc:
            raise ValueError(f"model file is missing {key!r}")
    kdoc = doc["kernel"]
    if not isinstance(kdoc, dict) or "kind" not in kdoc:
        raise ValueError("model file's 'kernel' must be an object with a 'kind'")
    kernel = KernelSpec(kind=kdoc["kind"], sigma=kdoc.get("sigma"),
                        degree=kdoc.get("degree"),
                        offset=kdoc.get("offset", 1.0))
    centers = as_points(doc["centers"])
    coeffs = np.asarray(doc["coeffs"], dtype=float)
    if coeffs.shape != (len(centers),):
        raise ValueError("model file's 'coeffs' must hold one per center")
    loss = family_loss(doc["family"], k=float(doc.get("k", 0.0)))
    model = RatioModel(kernel, centers, coeffs, loss)

    if o["data"] is not None:
        pts = _load_points(o["data"])
    else:
        if o["grid_n"] < 2 or not o["grid_lo"] < o["grid_hi"]:
            raise ValueError("need grid-lo < grid-hi and grid-n >= 2")
        pts = np.linspace(o["grid_lo"], o["grid_hi"], o["grid_n"])[:, None]

    bh = predict_ratio(model, pts)
    columns = [(f"x{i}", pts[:, i]) for i in range(pts.shape[1])]
    columns.append(("beta_hat", bh))
    capped = (bh <= DOMAIN_EPS) | (bh >= RATIO_CAP)
    metrics = {"n_points": len(pts), "mean_beta_hat": float(np.mean(bh)),
               "max_beta_hat": float(np.max(bh)),
               "clamp_count": int(np.sum(capped))}
    if o["pair"] != "none":
        if pts.shape[1] != 1:
            raise ValueError("pair comparison needs 1-d points")
        if o["pair"] == "piecewise":
            exact = piecewise_beta(default_pair(), pts[:, 0])
        else:
            _, exact_fn = gaussian_pair()
            exact = exact_fn(pts[:, 0])
        columns.append(("beta_exact", exact))
        metrics["sup_abs_error"] = float(np.max(np.abs(bh - exact)))
    out = _ensure_out(o["out"])
    _write_csv(os.path.join(out, "predictions.csv"), columns)
    _write_json(os.path.join(out, "eval.json"), metrics)
    return 0


def cmd_fig1(o: dict) -> int:
    res = figure1(quad_nodes=o["quad_nodes"], max_iter=o["max_iter"])
    sups, fits = res["sup_errors"], res["fits"]
    spec = default_pair()
    grid = np.linspace(spec.lo, spec.hi, o["grid_n"])
    out = _ensure_out(o["out"])
    _write_csv(os.path.join(out, "fig1_curves.csv"), [
        ("x", grid), ("beta", piecewise_beta(spec, grid)),
        *((f"betahat_{name}", fits[name].beta_hat(grid))
          for name in FIGURE1_FAMILIES)])
    ranking = sorted(sups, key=lambda n: sups[n])
    _write_json(os.path.join(out, "fig1_summary.json"), {
        "sup_errors": sups,
        "theta": {n: fits[n].theta for n in FIGURE1_FAMILIES},
        "status": {n: fits[n].status for n in FIGURE1_FAMILIES},
        "iterations": {n: fits[n].iterations for n in FIGURE1_FAMILIES},
        "ranking": ranking,
        "sup_interval": SUP_INTERVAL,
    })
    return 0


def cmd_fig2(o: dict) -> int:
    res = figure2(seed=o["seed"], sizes=o["sizes"], alphas=o["alphas"],
                  n_seeds=o["n_seeds"], grid_lo=o["grid_lo"],
                  grid_hi=o["grid_hi"], grid_n=o["grid_n"],
                  max_iter=o["max_iter"])
    columns = [("x", res["grid"]), ("beta_exact", res["exact_beta"])]
    cells_doc = []
    for cell in res["cells"]:
        tag = f"{cell.family}_n{cell.size}_a{cell.alpha:g}"
        columns.append((f"betahat_{tag}", cell.curve))
        cells_doc.append({"family": cell.family, "size": cell.size,
                          "alpha": cell.alpha, "max_abs": cell.max_abs,
                          "median_max_abs": cell.median_max_abs,
                          "unconverged": cell.unconverged})
    out = _ensure_out(o["out"])
    _write_csv(os.path.join(out, "fig2_curves.csv"), columns)
    _write_json(os.path.join(out, "fig2_summary.json"), {"cells": cells_doc})
    return 0


def cmd_fig3(o: dict) -> int:
    res = figure3(seed=o["seed"], n_src=o["n_src"], noise_sigma=o["noise"],
                  degree=o["degree"], alpha=o["alpha"],
                  quad_nodes=o["quad_nodes"], max_iter=o["max_iter"],
                  l2_nodes=o["l2_nodes"])
    pop = res["population_fits"]  # ew and lr
    spec = default_pair()
    grid = np.linspace(spec.lo, spec.hi, o["grid_n"])
    out = _ensure_out(o["out"])
    _write_csv(os.path.join(out, "fig3_curves.csv"), [
        ("x", grid), ("f_target", target_function(grid)),
        *((f"fhat_{name}", res["predictors"][name](grid))
          for name in ("uniform", "exact", "ew", "lr"))])
    _write_json(os.path.join(out, "fig3_summary.json"), {
        "l2p_sq": res["l2p_sq"],
        "l2q_sq": res["l2q_sq"],
        "population_theta": {n: pop[n].theta for n in pop},
        "population_status": {n: pop[n].status for n in pop},
        "population_iterations": {n: pop[n].iterations for n in pop},
        "noise": o["noise"], "n_src": o["n_src"], "seed": o["seed"],
    })
    return 0


def cmd_check(o: dict) -> int:
    report = run_all(seed=o["seed"])
    for g in report["groups"]:
        status = "PASS" if g["passed"] else "FAIL"
        print(f"[{status}] {g['group']}: max residual {g['max_residual']:.3e}"
              f" (tol {g['tolerance']:g}, {g['cases']} cases)")
    out = _ensure_out(o["out"])
    if out is not None:
        _write_json(os.path.join(out, "check_report.json"), report)
    return 0 if report["passed"] else 3


COMMANDS = {
    "loss-show": cmd_loss_show,
    "fit": cmd_fit,
    "eval": cmd_eval,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "check": cmd_check,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        options = _resolve_options(args.command, args)
        return COMMANDS[args.command](options)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FitError, RuntimeError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
