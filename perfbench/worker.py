"""Benchmark worker: runs one workload's passes through `ratioloss.cli.main`.

run.py starts one worker per workload run, with the checkout's `src` on
PYTHONPATH, and drives it as a single closed-loop caller.  Requests
arrive one JSON object per line on stdin and each gets one JSON line
back on stdout:

  {"op": "pass", "trace": false}  run every invocation once, in order
  {"op": "stop"}                  report process facts and exit

The first pass is the reference for output bytes; run.py leaves it
untimed as the warm-up.  CLI output of each invocation is captured, so
stdout carries only the protocol.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import ratioloss.cli as cli
import tracer as tracing
import verify
import workloads


def _out_bytes(path: str) -> int:
    try:
        return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())
    except OSError:
        return 0


def run_pass(invocations, tracer, reference):
    """Run every invocation once; `tracer` is None for an untraced pass."""
    runs, seconds, out_bytes = {}, {}, 0
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for inv in invocations:
            # no stale file from an earlier pass may pass for this one's output
            shutil.rmtree(inv.out, ignore_errors=True)
            captured = io.StringIO()
            if tracer is not None:
                tracer.label = inv.label
            with contextlib.redirect_stdout(captured), \
                    contextlib.redirect_stderr(captured):
                t0 = time.perf_counter()
                try:
                    code = cli.main(list(inv.argv))
                except Exception:  # an invocation's crash is its own failure
                    code = "exception"
                    traceback.print_exc(limit=4)
                seconds[inv.label] = time.perf_counter() - t0
            lines = captured.getvalue().strip().splitlines()
            runs[inv.label] = {"exit": code, "error": lines[-1] if lines else ""}
            out_bytes += _out_bytes(inv.out)
    finally:
        if tracer is not None:
            tracer.uninstall()

    records = verify.check_pass(invocations, runs, reference)
    result = {
        "wall_s": sum(seconds.values()),
        "out_bytes": out_bytes,
        "invocations": [dict(r, seconds=seconds[r["label"]]) for r in records],
    }
    if tracer is not None:
        result["trace"] = dict(tracer.summary(), counts=dict(tracer.counts),
                               fits=tracer.fits)
    return result


def _blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=workloads.SCALES)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    invocations = workloads.build(args.workload, args.seed, args.workdir,
                                  args.scale)
    modules = [importlib.import_module(f"{tracing.PACKAGE}.{m}")
               for m in tracing.LAYERS]
    tracer = tracing.Tracer(modules)
    proto = sys.stdout
    reference = None
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "stop":
            break
        result = run_pass(invocations, tracer if req["trace"] else None,
                          reference)
        if reference is None:
            reference = {r["label"]: r["digests"] for r in result["invocations"]}
        for r in result["invocations"]:
            del r["digests"]
        proto.write(json.dumps(result) + "\n")
        proto.flush()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    proto.write(json.dumps({
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "numpy": np.__version__,
        "blas": _blas_info(),
        "python": sys.version.split()[0],
    }) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
