"""Correctness rules for the invocations of one pass.

An invocation is *failed* when the program reports that the operation
did not succeed: an unexpected exit code, or a fit that ends in any
status other than `converged` or `closed_form`.  It is *wrong* when the
program reports success but its output is not right: a missing,
unparseable or non-finite output, a CSV with the wrong row count, an
identity group marked failing, kulsif BFGS scores that miss the
closed-form scores, or output bytes that differ from the run's first
pass.  Both count against `ok_frac`; only a wrong invocation makes the
run incorrect.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from workloads import OUTPUTS

FIT_OK = ("converged", "closed_form")
# oracle a07's tolerance on the training-point scores
ORACLE_TOL = 1e-6


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def _read_output(path: str):
    """Parsed content of a JSON or CSV output; raises ValueError if it is
    unreadable or holds a non-finite number."""
    if path.endswith(".json"):
        with open(path) as fh:
            doc = json.load(fh)
        if not _all_finite(doc):
            raise ValueError("non-finite number")
        return doc
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(table)):
        raise ValueError("non-finite number")
    return table


def _scores_on_centers(model: dict) -> tuple[np.ndarray, np.ndarray]:
    """Training-point scores of a gaussian-kernel model.json, computed
    here without the library's kernel code."""
    centers = np.asarray(model["centers"], dtype=float)
    coeffs = np.asarray(model["coeffs"], dtype=float)
    sigma = float(model["kernel"]["sigma"])
    sq = np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=-1)
    return centers, np.exp(-sq / (2.0 * sigma ** 2)) @ coeffs


def check_pass(invocations, runs: dict, reference: dict | None) -> list:
    """One record per invocation, in order.

    `runs` maps each label to {"exit": code, "error": text}; `reference`
    maps labels to the output digests of the run's first pass, or is
    None while checking that pass.
    """
    records = []
    docs = {}
    for inv in invocations:
        run = runs[inv.label]
        rec = {"label": inv.label, "failed": [], "wrong": [], "digests": {}}
        records.append(rec)
        if run["exit"] != 0:
            rec["failed"].append(f"exit code {run['exit']}: {run['error']}")
            continue
        parsed = {}
        for name in OUTPUTS[inv.argv[0]]:
            path = os.path.join(inv.out, name)
            try:
                with open(path, "rb") as fh:
                    rec["digests"][name] = hashlib.sha256(fh.read()).hexdigest()
                parsed[name] = _read_output(path)
            except (OSError, ValueError) as exc:
                rec["wrong"].append(f"{name}: {exc}")
        docs[inv.label] = parsed
        if "metrics.json" in parsed:
            m = parsed["metrics.json"]
            rec["fit"] = {"status": m["status"], "iterations": m["iterations"],
                          "train_risk": m["train_risk"]}
            if m["status"] not in FIT_OK:
                rec["failed"].append(f"fit ended {m['status']}")
        report = parsed.get("check_report.json")
        if report is not None:
            bad = [g["group"] for g in report["groups"] if not g["passed"]]
            if bad or not report["passed"]:
                rec["wrong"].append(f"identity groups failing: {bad}")
        if inv.rows is not None:
            for name, table in parsed.items():
                if name.endswith(".csv") and table.shape[0] != inv.rows:
                    rec["wrong"].append(
                        f"{name}: {table.shape[0]} rows, expected {inv.rows}")
        if reference is not None:
            ref = reference.get(inv.label, {})
            for name, digest in rec["digests"].items():
                if ref.get(name) != digest:
                    rec["wrong"].append(f"{name}: bytes differ from the first pass")

    for inv, rec in zip(invocations, records):
        if inv.oracle is None:
            continue
        mine = docs.get(inv.label, {}).get("model.json")
        theirs = docs.get(inv.oracle, {}).get("model.json")
        if mine is None or theirs is None:
            rec["wrong"].append(f"no model to compare with {inv.oracle!r}")
            continue
        c_mine, s_mine = _scores_on_centers(mine)
        c_theirs, s_theirs = _scores_on_centers(theirs)
        if not np.array_equal(c_mine, c_theirs):
            rec["wrong"].append(f"training points differ from {inv.oracle!r}")
            continue
        gap = float(np.max(np.abs(s_mine - s_theirs)))
        rec["oracle_gap"] = gap
        if not gap <= ORACLE_TOL:
            rec["wrong"].append(
                f"scores differ from {inv.oracle!r} by {gap:.3e} > {ORACLE_TOL:g}")
    return records
