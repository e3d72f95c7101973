"""The benchmark's workloads: fixed lists of `ratioloss` CLI invocations.

Every input is derived once from the workload seed as CLI `--seed`
values; the program samples its own data from them.  A run repeats the
same list in every pass, so pass times measure the code and not the
sample.  Why each workload exists is recorded in BENCHMARK.json and
perfbench/README.md.

`scale="smoke"` shrinks every size so the whole benchmark runs in
seconds; it is used by `run.py --smoke` and the benchmark's tests.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("fit-n2000", "cv-n800", "experiments")
SCALES = ("full", "smoke")

# files each subcommand writes into its --out directory
OUTPUTS = {
    "fit": ("model.json", "metrics.json"),
    "eval": ("predictions.csv", "eval.json"),
    "loss-show": ("loss.csv", "loss.json"),
    "fig1": ("fig1_curves.csv", "fig1_summary.json"),
    "fig2": ("fig2_curves.csv", "fig2_summary.json"),
    "fig3": ("fig3_curves.csv", "fig3_summary.json"),
    "check": ("check_report.json",),
}

# BFGS iteration counts follow the sample, and the low and high counts
# of the three families come together on one sample.  So each family in
# fit-n2000 and cv-n800 fits a sample of its own, and fit-n2000 fits
# this many per family, to keep one unlucky draw from moving a pass.
FIT_REPLICATES = 2

# every CLI family; loss-show and the small fits cover each once
FAMILIES = (("kulsif", ()), ("lr", ()), ("klest", ()), ("boost", ()),
            ("poly", ("--k", "6")), ("ew", ()))


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  `oracle` names the invocation whose model the
    training-point scores of this one must match (kulsif BFGS against
    its closed form); `rows` is the expected row count of a CSV output."""

    label: str
    argv: tuple
    out: str
    oracle: Optional[str] = None
    rows: Optional[int] = None


def _fit(label, out, family, n, seed, *extra, oracle=None):
    return Invocation(label, ("fit", "--out", out, "--family", family,
                              "--n", str(n), "--m", str(n),
                              "--seed", str(seed)) + tuple(extra),
                      out, oracle=oracle)


def cli_seed(seed: int, tag: str) -> int:
    """A CLI seed for one sample, independent across tags."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def build(name: str, seed: int, workdir: str, scale: str = "full") -> tuple:
    """The invocation list of workload `name` for `seed`, writing under
    `workdir`.  The same arguments always give the same list."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    smoke = scale == "smoke"
    s = int(seed)

    def d(tag: str) -> str:
        return os.path.join(workdir, tag)

    if name == "fit-n2000":
        n = 20 if smoke else 1000
        grid_n = 101 if smoke else 2001
        inv = []
        for r in range(FIT_REPLICATES):
            seeds = {fam: cli_seed(s, f"{name}/{fam}/{r}")
                     for fam in ("ew", "lr", "kulsif")}
            inv += [
                _fit(f"fit ew #{r}", d(f"fit-ew-{r}"), "ew", n, seeds["ew"]),
                _fit(f"fit lr #{r}", d(f"fit-lr-{r}"), "lr", n, seeds["lr"]),
                _fit(f"fit kulsif #{r}", d(f"fit-kulsif-{r}"), "kulsif", n,
                     seeds["kulsif"], oracle=f"fit kulsif closed-form #{r}"),
                _fit(f"fit kulsif closed-form #{r}", d(f"fit-kulsif-cf-{r}"),
                     "kulsif", n, seeds["kulsif"], "--solver", "closed-form"),
                Invocation(f"eval ew #{r}",
                           ("eval", "--out", d(f"eval-ew-{r}"), "--model",
                            os.path.join(d(f"fit-ew-{r}"), "model.json"),
                            "--grid-n", str(grid_n), "--pair", "piecewise"),
                           d(f"eval-ew-{r}"), rows=grid_n),
            ]
    elif name == "cv-n800":
        n = 25 if smoke else 400
        inv = [_fit(f"fit-cv {fam}", d(f"cv-{fam}"), fam, n,
                    cli_seed(s, f"{name}/{fam}"), "--alpha", "cv")
               for fam in ("ew", "lr", "kulsif")]
    elif name == "experiments":
        fig1 = ("--quad-nodes", "101", "--grid-n", "51") if smoke else ()
        fig2 = (("--n-seeds", "1", "--sizes", "10", "--alphas", "0.01",
                 "--grid-n", "21") if smoke else ())
        fig3 = (("--n-src", "30", "--n-tgt", "30", "--quad-nodes", "101",
                 "--l2-nodes", "101", "--grid-n", "51") if smoke else ())
        inv = [
            Invocation("fig1", ("fig1", "--out", d("fig1")) + fig1, d("fig1")),
            Invocation("fig2", ("fig2", "--out", d("fig2"), "--seed", str(s))
                       + fig2, d("fig2")),
            Invocation("fig3", ("fig3", "--out", d("fig3"), "--seed", str(s))
                       + fig3, d("fig3")),
            Invocation("check", ("check", "--out", d("check"),
                                 "--seed", str(s)), d("check")),
        ]
        for fam, extra in FAMILIES:
            out = d(f"loss-{fam}")
            inv.append(Invocation(f"loss-show {fam}",
                                  ("loss-show", "--out", out, "--family", fam)
                                  + extra, out))
        for fam, extra in FAMILIES:
            inv.append(_fit(f"fit {fam}", d(f"fit-{fam}"), fam,
                            20 if smoke else 100, s, *extra))
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return tuple(inv)
