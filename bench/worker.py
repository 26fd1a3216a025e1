"""One pass of one workload in a fresh process; prints a JSON line.

Started by run.py, never by hand:

    python3 bench/worker.py --workload W --seed N --index K --t0 T
                            [--setup-only | --trace | --twin]

cli_batch requests run as `python -m cablekit.cli` subprocesses, except in a
traced pass and its untraced twin, which call ``cablekit.cli.main`` in this
process.  A traced pass writes its spans to bench/out/spans/W/; the twin of
pass 0 also times the bodies of acceptance criteria 1 and 2.

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared by all processes of a Linux host, so
``setup_s`` covers interpreter start, imports and input generation.

The record holds each request's latency twice: as measured, and scaled to
the reference speed by the probe samples taken around it (``scaled``, see
``common.Probe``).  Subprocess CLI calls are scaled by a bare interpreter
start, in-process requests by a pure-Python loop.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
from common import IN_PROCESS, NEW_PROCESS, OUT, ROOT, cli_env, import_cablekit

CLI_TIMEOUT_S = 60
CAL_MAX = 8


def _subprocess_cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "cablekit.cli", *argv],
        capture_output=True, text=True, env=cli_env(), cwd=ROOT, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _inprocess_cli(argv):
    from cablekit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # verify-word exits 2 on unequal words
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _criteria_us(reps: int = 200) -> dict:
    """Warm medians of the bodies of acceptance criteria 1 and 2, in us."""
    from cablekit.classify import CableCoefficients, VerdictKind, classify_cable
    from cablekit.lens import (LensTorusKnot, boundary_count, boundary_wrap,
                               euler_characteristic, homological_order)
    from cablekit.openbook import BindingComponent, RationalOpenBook
    from cablekit.slopes import Slope, exceptional_slopes
    from workloads import require

    book = RationalOpenBook(genus=1, components=(BindingComponent(3, -1),))
    c_ot = CableCoefficients(((3, -2),))
    c_exc = CableCoefficients(((2, -1),))

    def criterion1():
        require(exceptional_slopes(Slope(-1, 3)) == [Slope(-1, 2), Slope(-1)], "criterion body")
        require(classify_cable(book, c_ot).kind is VerdictKind.OVERTWISTED, "criterion body")
        require(classify_cable(book, c_exc).kind is VerdictKind.EXCEPTIONAL_TIGHT_POSSIBLE, "criterion body")

    def criterion2():
        disk = LensTorusKnot(7, 2, 1, 3)
        require(euler_characteristic(disk) == 1, "criterion body")
        require(boundary_count(disk) == 1, "criterion body")
        require(homological_order(disk) == 7, "criterion body")
        annular = LensTorusKnot(4, 1, 2, 1)
        require(euler_characteristic(annular) == 0, "criterion body")
        require(boundary_count(annular) == 2, "criterion body")
        require(homological_order(annular) == 2, "criterion body")
        require(boundary_wrap(annular) == 1, "criterion body")
        twice = LensTorusKnot(8, 1, 2, 1)
        require(euler_characteristic(twice) == -2, "criterion body")
        require(boundary_count(twice) == 2, "criterion body")
        require(homological_order(twice) == 4, "criterion body")
        require(boundary_wrap(twice) == 2, "criterion body")

    out = {}
    for name, body in (("classify.criterion1_us", criterion1), ("lens.criterion2_us", criterion2)):
        for _ in range(3):
            body()
        times = []
        for _ in range(reps):
            t = time.perf_counter()
            body()
            times.append(time.perf_counter() - t)
        out[name] = statistics.median(times) * 1e6
    return out


def run_pass(requests, tracer, cli_runner, probe):
    """Time every request, then check it; returns the pass record.

    The probe is sampled before the first request, before any request that
    starts ``probe.every_s`` or more after the last samples, and after the
    last request; each group of samples, one per ``every_s`` elapsed (1 to
    CAL_MAX), counts as their mean.  A request is scaled by the mean of the
    groups just before and just after it."""
    latencies, failures, defects = [], [], {}
    cals, cal_at = [], []

    def calibrate(since):
        n = min(CAL_MAX, max(1, int((time.perf_counter() - since) / probe.every_s)))
        cals.append(statistics.fmean(probe.sample() for _ in range(n)))
        return time.perf_counter()

    last = calibrate(time.perf_counter())
    for i, req in enumerate(requests):
        run = req.run if req.argv is None else (lambda argv=req.argv: cli_runner(argv))
        error = None
        if time.perf_counter() - last >= probe.every_s:
            last = calibrate(last)
        cal_at.append(len(cals) - 1)
        if tracer is not None:
            tracer.request = i
        t = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # a request that raises is a failed request
            error = exc
        latencies.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.request = None
        if error is not None:
            failures.append(f"{req.kind}: {type(error).__name__}: {error}")
            continue
        try:
            tag = req.check(result)
        except Exception as exc:  # wrong output; CheckError or a malformed payload
            failures.append(f"{req.kind}: {type(exc).__name__}: {exc}")
            continue
        if tag is not None:
            defects[tag] = defects.get(tag, 0) + 1
    calibrate(last)
    scale = [probe.ref_s / ((cals[k] + cals[k + 1]) / 2) for k in cal_at]
    return {
        "attempted": len(requests),
        "latencies": latencies,
        "scaled": [x * f for x, f in zip(latencies, scale)],
        "cals": cals,
        "unknown_failures": failures,
        "known_defects": defects,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--twin", action="store_true", help="untraced twin of a traced pass")
    args = ap.parse_args()

    import_cablekit()
    import cablekit.cli  # noqa: F401  (part of set-up for every workload)
    import workloads

    workdir = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
    try:
        context = workloads.make_context(args.workload)
        requests = workloads.build_pass(args.workload, args.seed, args.index, workdir, context)
        setup_s = time.monotonic() - args.t0
        record = {"setup_s": setup_s}
        if not args.setup_only:
            tracer = None
            if args.trace:
                tracer = tracing.Tracer()
                tracing.install(tracer)
            if args.workload == "cli_batch":
                cli_runner = _inprocess_cli if args.trace or args.twin else _subprocess_cli
            else:
                cli_runner = None
            probe = NEW_PROCESS if cli_runner is _subprocess_cli else IN_PROCESS
            record.update(run_pass(requests, tracer, cli_runner, probe))
            who = resource.RUSAGE_CHILDREN if cli_runner is _subprocess_cli else resource.RUSAGE_SELF
            record["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            if tracer is not None:
                record["layers"] = tracing.summarize(tracer)
                spans = OUT / "spans" / args.workload
                spans.mkdir(parents=True, exist_ok=True)
                tracer.write(spans / f"seed{args.seed}-pass{args.index}.jsonl")
            if args.twin and args.index == 0:
                record["criteria"] = _criteria_us()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
