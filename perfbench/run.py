"""Benchmark for ratioloss, driven only through `ratioloss.cli.main`.

    python3 perfbench/run.py --workload fit-n2000 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --smoke               # every workload at tiny N

Run from the root of a checkout.  One worker process per run executes
the workload's fixed invocation list (perfbench/workloads.py) as a
closed loop with a single caller: an untimed warm-up pass, then timed
passes until `--seconds` of pass time is spent.  Between passes this
process times fresh interpreters importing `ratioloss.cli` (`setup_s`).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
reports its per-layer metrics, measured by wrapping the public functions
of every `ratioloss` module (perfbench/tracer.py) on alternate passes,
the others being untraced so the tracing overhead is measured too.
The last stdout line is the result object; the line before it holds the
run's diagnostics, which are also written to .perfbench_work/reports/.
BLAS threads and every machine setting are left as found.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SRC = ROOT / "src"
CLI_SOURCE = SRC / "ratioloss" / "cli.py"

# setup_s samples: SETUP_PER_GAP after the warm-up and after each timed
# pass, topped up to SETUP_MIN at the end and never more than SETUP_MAX
SETUP = {"full": (3, 15, 24), "smoke": (1, 3, 3)}
# a run must end within 180 s: start no pass that would end past this
DEADLINE_S = 165.0
CALIBRATION_LOOP = 1_000_000
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ------------------------------------------------------------ machine

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _steal_s():
    """Machine-wide steal time so far, from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _calibrate() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOP):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# --------------------------------------------------------------- setup

def _setup_sample(env: dict, trace: bool):
    """Wall seconds for a fresh interpreter to import ratioloss.cli; in a
    traced run instead, from -X importtime, each ratioloss module's own
    import seconds and numpy's import seconds including its imports."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        "-c", "import ratioloss.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"import ratioloss.cli failed: {proc.stderr[-500:]}")
    if not trace:
        return wall
    seconds = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
        if m is None:
            continue
        name = m.group(3)
        if name.startswith("ratioloss."):
            seconds[name[len("ratioloss."):] + ".import_s"] = int(m.group(1)) / 1e6
        elif name == "numpy":
            seconds["import.numpy_s"] = int(m.group(2)) / 1e6
    return seconds


# -------------------------------------------------------------- worker

class Worker:
    """The worker process and its line protocol."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py")),
             "--workload", workload, "--seed", str(seed), "--scale", scale,
             "--workdir", os.path.relpath(workdir, ROOT)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def request(self, req: dict, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError(f"worker gave no answer to {req} "
                             f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ----------------------------------------------------------------- run

def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> tuple[dict, dict]:
    """Run one workload; returns (result object, diagnostics)."""
    if not CLI_SOURCE.is_file():
        raise BenchError(f"no ratioloss source at {CLI_SOURCE.relative_to(ROOT)}"
                         "; run from the root of a ratioloss checkout")
    per_gap, setup_min, setup_max = SETUP[scale]
    env = _child_env()
    t_start = time.perf_counter()
    steal0 = _steal_s()
    calib0 = _calibrate()
    workdir = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    setup = []

    def sample_setup(k: int) -> None:
        for _ in range(min(k, setup_max - len(setup))):
            setup.append(_setup_sample(env, trace))

    worker = Worker(name, seed, scale, workdir)
    try:
        warm = worker.request({"op": "pass", "trace": False}, DEADLINE_S)
        sample_setup(per_gap)
        timed = []
        measured = 0.0
        # traced runs alternate traced and untraced passes; both kinds are
        # needed for the tracing overhead
        min_passes = 2 if trace else 1
        while measured < seconds or len(timed) < min_passes:
            elapsed = time.perf_counter() - t_start
            if timed and elapsed + 1.2 * timed[-1]["wall_s"] > DEADLINE_S:
                break
            traced = trace and len(timed) % 2 == 0
            res = worker.request({"op": "pass", "trace": traced},
                                 DEADLINE_S - elapsed)
            res["traced"] = traced
            timed.append(res)
            measured += res["wall_s"]
            sample_setup(per_gap)
        facts = worker.request({"op": "stop"}, 30)
        worker.proc.wait(timeout=30)
    finally:
        worker.close()
        shutil.rmtree(workdir, ignore_errors=True)
    sample_setup(max(0, setup_min - len(setup)))
    calib1 = _calibrate()
    steal1 = _steal_s()
    wall = time.perf_counter() - t_start

    passes = [warm] + timed
    attempted = sum(len(p["invocations"]) for p in passes)
    not_ok = {}
    n_not_ok = n_wrong = 0
    for p in passes:
        for r in p["invocations"]:
            if r["failed"] or r["wrong"]:
                n_not_ok += 1
                n_wrong += bool(r["wrong"])
                not_ok.setdefault(r["label"], set()).update(r["failed"] + r["wrong"])

    plain = [p["wall_s"] for p in timed if not p["traced"]]
    if trace:
        traced = [p for p in timed if p["traced"]]
        metrics = _layer_metrics(traced, setup)
        overhead = (_median([p["wall_s"] for p in traced]) / _median(plain) - 1.0
                    if plain else None)
    else:
        metrics = {
            "setup_s": (_median(setup), "s"),
            "wall_s": (_median(plain), "s"),
            "peak_rss_mb": (facts["peak_rss_mb"], "MB"),
            "ok_frac": ((attempted - n_not_ok) / attempted, "fraction"),
        }
        overhead = None

    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    diagnostics = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "warmup_s": warm["wall_s"],
        "pass_s": [p["wall_s"] for p in timed],
        "pass_traced": [p["traced"] for p in timed],
        "setup_samples": len(setup),
        "setup": setup,
        "run_wall_s": wall,
        "steal_s": steal,
        "steal_share": None if steal is None else steal / (wall * os.cpu_count()),
        "calibration_s": {"start": calib0, "end": calib1},
        "tracing_overhead": overhead,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": facts["python"], "numpy": facts["numpy"],
        "blas": facts["blas"],
        "commit": _commit(), "src_sha256": _source_digest(),
        "not_ok": {k: sorted(v) for k, v in not_ok.items()},
        "invocations": _invocation_table(passes, timed),
    }
    result = {
        "correct": n_wrong == 0,
        "attempted": attempted,
        "failed": n_not_ok,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, diagnostics


def _layer_metrics(traced: list, setup: list) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    def med(fn):
        return _median([fn(p) for p in traced])

    def count(p, key):
        return p["trace"]["counts"].get(key, 0)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (med(lambda p: p["trace"]["self_s"].get(layer, 0.0)), "s")
        out[f"{layer}.calls"] = (med(lambda p: count(p, f"{layer}.calls")), "count")
    iters = med(lambda p: count(p, "optim.iterations"))
    f_evals = med(lambda p: count(p, "optim.f_evals"))
    out["optim.iterations"] = (iters, "count")
    out["optim.f_evals"] = (f_evals, "count")
    out["optim.accept_ratio"] = (iters / f_evals if f_evals else 0.0, "ratio")
    out["dre.objective_s"] = (
        med(lambda p: p["trace"]["inclusive_s"].get("dre.objective", 0.0)), "s")
    out["kernels.gram_entries"] = (med(lambda p: count(p, "kernels.gram_entries")), "count")
    out["dre.predict_pts"] = (med(lambda p: count(p, "dre.predict_pts")), "count")
    out["cli.out_bytes"] = (med(lambda p: p["out_bytes"]), "bytes")
    for key in [f"{layer}.import_s" for layer in LAYERS] + ["import.numpy_s"]:
        out[key] = (_median([s.get(key, 0.0) for s in setup]), "s")
    return out


def _invocation_table(passes: list, timed: list) -> list:
    """Per invocation: median seconds over the timed passes, next to its
    fit outcome and, from a traced pass, its solver counts."""
    rows = []
    traced = [p for p in timed if p["traced"]]
    for i, first in enumerate(passes[0]["invocations"]):
        label = first["label"]
        row = {"label": label,
               "seconds": _median([p["invocations"][i]["seconds"] for p in timed]),
               "ok_passes": sum(not (p["invocations"][i]["failed"]
                                     or p["invocations"][i]["wrong"])
                                for p in passes),
               "passes": len(passes)}
        for key in ("fit", "oracle_gap"):
            if key in first:
                row[key] = first[key]
        if traced:
            t = traced[0]["trace"]
            fits = [f for f in t["fits"] if f["label"] == label]
            if fits:
                row["optim"] = {"solves": len(fits),
                                "iterations": sum(f["iterations"] for f in fits),
                                "f_evals": sum(f["f_evals"] for f in fits),
                                "f_star": fits[-1]["f_star"],
                                "status": fits[-1]["status"]}
            row["self_s"] = t["self_s_by_label"].get(label, {})
            row["repeat_exactly"] = all(
                p["trace"]["counts"] == t["counts"] for p in traced)
        rows.append(row)
    return rows


# ------------------------------------------------------------- output

def _declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _validate(result: dict, trace: bool) -> None:
    """Raise unless the metrics are exactly those BENCHMARK.json declares."""
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(k for k in set(got) & set(declared) if got[k] != declared[k])
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, wrong unit {units}")


def _report(result: dict, diag: dict) -> None:
    WORK.joinpath("reports").mkdir(parents=True, exist_ok=True)
    name = f"{diag['workload']}-{diag['scale']}-seed{diag['seed']}-trace{diag['trace']}.json"
    with open(WORK / "reports" / name, "w") as fh:
        json.dump({"result": result, "diagnostics": diag}, fh, indent=2)

    n_timed = len(diag["pass_s"])
    counts = {"setup_s": f"median of {diag['setup_samples']} fresh interpreters",
              "wall_s": f"median of {n_timed} timed passes",
              "peak_rss_mb": "worker maximum resident set",
              "ok_frac": f"{result['attempted'] - result['failed']} of "
                         f"{result['attempted']} invocations"}
    print(f"# {diag['workload']} seed {diag['seed']} trace {diag['trace']}: "
          f"warm-up {diag['warmup_s']:.3f} s, {n_timed} timed passes, "
          f"steal {diag['steal_s']} s")
    for k, v in result["metrics"].items():
        print(f"  {k:24s} {v['value']:>14.6g} {v['unit']:9s} {counts.get(k, '')}")
    for label, reasons in diag["not_ok"].items():
        print(f"  NOT OK {label}: {'; '.join(reasons)}")
    print("diagnostics " + json.dumps({k: v for k, v in diag.items()
                                       if k not in ("invocations", "setup")}))


def _one(workload, seed, seconds, trace, scale="full") -> dict:
    result, diag = run_workload(workload, seed, seconds, trace, scale)
    _validate(result, trace)
    _report(result, diag)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ratioloss benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny N, untraced and traced")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            for name in workloads.WORKLOADS:
                for trace in (False, True):
                    result = _one(name, args.seed, 0.0, trace, "smoke")
                    if not result["correct"]:
                        raise BenchError(f"{name}: outputs are not correct")
            print("smoke ok")
            return 0
        if args.workload == "all":
            rows = [(n, _one(n, args.seed, args.seconds, bool(args.trace)))
                    for n in workloads.WORKLOADS]
            for n, result in rows:
                print(f"{n}: " + ", ".join(
                    f"{k} {v['value']:.6g} {v['unit']}"
                    for k, v in result["metrics"].items()))
            return 0
        result = _one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
