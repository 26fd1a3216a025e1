#!/usr/bin/env python3
"""cablekit benchmark: end-to-end and per-layer metrics for four workloads.

Run from the root of a checkout (stdlib only; the package is imported from
the checkout's ``src/`` and nothing is installed):

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --repeat 10 --seed 1 --seconds S

Workloads (closed loop, one client, one request at a time; BENCHMARK.json
gates cli_batch and oracle_grid, the other two are run by name):

* ``cli_batch``         seeded ``python -m cablekit.cli --json`` calls over all
                        11 subcommands, one subprocess each; 4 of 40 per pass
                        are malformed and must exit 2 with an ``error:`` line.
* ``oracle_grid``       (p,1), (2,2) and cobordism words over g <= 4, every
                        curve system built cold, each word verified on homology.
* ``obstruction_sweep`` stein_obstruction_Lppm1(p) for p = 1..100 and a seeded
                        log-uniform sample of [10^3, 10^5].
* ``calculus_sweep``    slopes, lens, openbook, classify, library replays and
                        homology equality on small inputs.

A run repeats *passes* for about ``--seconds`` (whole passes, at least two;
another pass starts only if the run then ends closer to ``--seconds``).
Every pass is a fresh worker process (bench/worker.py), so each oracle_grid
pass builds its curve systems cold; the pass inputs come from (workload,
seed, pass index) alone.  Nine more workers only set up and exit;
``setup_s`` is the median of their set-up times.

The run and all its children are pinned to one CPU.  The host's speed
drifts by up to a factor of two, so every time is scaled to a reference
speed: the workers (and, around each set-up worker, this process) time a
fixed probe between requests (``common.Probe``: a bare interpreter start
for CLI subprocesses and set-ups, a pure-Python loop for in-process
requests), and a time t becomes t * ref_s / c, where c is the mean probe
time just before and just after it.  The unscaled values and the probe
quartiles are in the detail line.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
The line before it records the environment, the pass count, the percentile
behind ``latency_tail_ms`` with its sample counts, ``failed_frac`` and the
failures.  ``failed`` counts every request whose output missed its closed
form; ``correct`` is false when any failure is not one of the catalogued
defects in ``workloads.KNOWN_DEFECTS``.

``--trace 0`` reports the end-to-end metrics, times at the reference speed:

* setup_s         median worker set-up: interpreter start, imports, inputs
* throughput_rps  requests completed per second of request time
* latency_p50_ms  median over the passes of each pass's median latency
* latency_tail_ms the highest percentile with at least 10 samples beyond it,
                  i.e. the 11th largest latency of the run
* peak_rss_mb     largest resident set of a worker (cli_batch: of a CLI call)

``--trace 1`` alternates an untraced and a traced worker on each pass
index and reports the per-layer metrics of bench/tracing.py, averaged per
traced pass, plus ``trace.overhead_frac`` (traced request time over
untraced request time of the same passes, minus 1), ``cli.import_s`` (a
fresh ``import cablekit.cli`` minus a bare interpreter start) and the warm
medians of the acceptance criteria 1 and 2.  Spans are written as JSON lines
to bench/out/spans/<workload>/.

``--repeat N`` runs N seeds (seed, seed+1, ...) per workload as separate
runs and prints each metric's median and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from common import (BENCH, NEW_PROCESS, OUT, ROOT, SRC, TreeError, cli_env, pin_cpu, require_tree,
                    under_src)
from tracing import PER_LAYER

WORKLOADS = ("cli_batch", "oracle_grid", "obstruction_sweep", "calculus_sweep")
SETUP_ONLY_WORKERS = 9
MIN_PASSES = 2
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10
IMPORT_REPS = 5

UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _run_child(cmd, timeout, env=None):
    """Run a child in its own process group and wait for it.  On a timeout,
    or when this process is interrupted, kill the group (the child and any
    CLI process it started) and wait for it before going on."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd[:6])}") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd[:6])}\n{err.strip()[-2000:]}")
    return out


class Run:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()

    def remaining(self) -> float:
        left = RUN_LIMIT_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError("run exceeded its time limit")
        return left

    def worker(self, index, *flags) -> dict:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--index", str(index), *flags]
        cmd += ["--t0", repr(time.monotonic())]
        out = _run_child(cmd, self.remaining())
        return json.loads(out.strip().splitlines()[-1])


def check_import_source() -> None:
    """The CLI subprocesses must import cablekit from src/ too (this also
    compiles the package's bytecode before anything is timed)."""
    out = _run_child([sys.executable, "-c", "import cablekit.cli, cablekit; print(cablekit.__file__)"],
                     60, env=cli_env())
    path = out.strip().splitlines()[-1]
    if not under_src(path):
        raise TreeError(f"cablekit.cli imports {path}, not the sources under {SRC}")


def measure_import_s() -> float:
    """Fresh-process `import cablekit.cli` minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPS):
        for cmd, sink in ((["-c", "pass"], bare), (["-c", "import cablekit.cli"], full)):
            t = time.perf_counter()
            _run_child([sys.executable, *cmd], 60, env=cli_env())
            sink.append(time.perf_counter() - t)
    return statistics.median(full) - statistics.median(bare)


def environment(seed) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": os.cpu_count(),
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text(encoding="utf-8").strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def execute(workload, seed, seconds, trace) -> tuple[dict, dict]:
    require_tree()
    check_import_source()
    cpu = pin_cpu()
    run = Run(workload, seed)
    setups, setups_raw, setup_cals = [], [], [NEW_PROCESS.sample()]
    for k in range(SETUP_ONLY_WORKERS):  # a set-up starts a process: scale it by a bare one
        setups_raw.append(run.worker(k, "--setup-only")["setup_s"])
        setup_cals.append(NEW_PROCESS.sample())
        setups.append(setups_raw[-1] * NEW_PROCESS.ref_s / statistics.fmean(setup_cals[-2:]))
    if trace:  # keep only this run's spans
        for old in (OUT / "spans" / workload).glob("*.jsonl"):
            old.unlink()
    plain, traced = [], []
    start = time.monotonic()
    index = 0
    while True:
        if trace:
            plain.append(run.worker(index, "--twin"))
            traced.append(run.worker(index, "--trace"))
        else:
            plain.append(run.worker(index))
        index += 1
        elapsed = time.monotonic() - start
        # stop when one more pass would overshoot --seconds by more than stopping undershoots it
        if index >= MIN_PASSES and elapsed + elapsed / index / 2 >= seconds:
            break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    unknown = [f for p in passes for f in p["unknown_failures"]]
    defects: dict = {}
    for p in passes:
        for tag, n in p["known_defects"].items():
            defects[tag] = defects.get(tag, 0) + n
    failed = len(unknown) + sum(defects.values())

    latencies = sorted(x for p in plain for x in p["scaled"])
    raw = sorted(x for p in plain for x in p["latencies"])
    rank = max(len(latencies) - TAIL_BEYOND, 1)  # highest rank with 10 samples beyond it
    cals = sorted(c for p in plain for c in p["cals"])
    detail = {
        "workload": workload, "seconds": seconds, "trace": int(trace),
        "env": environment(seed),
        "passes": len(plain), "traced_passes": len(traced),
        "setup_samples": len(setups),
        "latency_samples": len(latencies),
        "latency_tail": {"percentile": 100.0 * rank / len(latencies), "samples": len(latencies),
                         "beyond": len(latencies) - rank},
        "failed_frac": {"value": failed / attempted, "unit": "fraction"},
        "pinned_cpu": cpu,
        "probe_quartiles_s": {"set-up": statistics.quantiles(setup_cals, n=4),
                              "requests": statistics.quantiles(cals, n=4)},
        "unscaled": {
            "setup_s": statistics.median(setups_raw),
            "throughput_rps": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(statistics.median(p["latencies"]) for p in plain) * 1e3,
            "latency_tail_ms": raw[rank - 1] * 1e3,
        },
        "known_defects": defects,
        "unknown_failures": unknown[:20],
    }
    if trace:
        metrics = per_layer(plain, traced)
    else:
        busy = sum(latencies)
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_rps": len(latencies) / busy,
            "latency_p50_ms": statistics.median(statistics.median(p["scaled"]) for p in plain) * 1e3,
            "latency_tail_ms": latencies[rank - 1] * 1e3,
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    result = {"correct": not unknown, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


def per_layer(plain, traced) -> dict:
    n = len(traced)
    values = {k: sum(p["layers"][k] for p in traced) / n for k in traced[0]["layers"]}
    values["curves.oracle_dim_max"] = max(p["layers"]["curves.oracle_dim_max"] for p in traced)
    untraced_s = sum(sum(p["scaled"]) for p in plain)
    traced_s = sum(sum(p["scaled"]) for p in traced)
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    values["cli.import_s"] = measure_import_s()
    values.update(plain[0]["criteria"])
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}


def repeat(workloads, seed, seconds, trace, n) -> dict:
    summary = {}
    for workload in workloads:
        runs = []
        for i in range(n):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed + i),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
            line = _run_child(cmd, RUN_LIMIT_S + 30).strip().splitlines()[-1]
            runs.append(json.loads(line))
            print(f"{workload} seed {seed + i}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in runs[-1]["metrics"].items()), flush=True)
        stats = {}
        for k in runs[0]["metrics"]:
            vals = [r["metrics"][k]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4) if n > 1 else (vals[0],) * 3
            stats[k] = {"median": med, "q1": q1, "q3": q3, "unit": runs[0]["metrics"][k]["unit"],
                        "spread": (q3 - q1) / med if med else None}
        stats["failed"] = [r["failed"] for r in runs]
        stats["correct"] = all(r["correct"] for r in runs)
        summary[workload] = stats
        for k, s in stats.items():
            if isinstance(s, dict):
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {k:28s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {spread}", flush=True)
    return summary


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, a comma list, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload, reporting quartiles")
    args = ap.parse_args(argv)
    chosen = WORKLOADS if args.workload == "all" else tuple(args.workload.split(","))
    unknown = [w for w in chosen if w not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; pick from {list(WORKLOADS)}")
    try:
        if args.repeat:
            summary = repeat(chosen, args.seed, args.seconds, args.trace, args.repeat)
            print(json.dumps({"repeat": args.repeat, "seed": args.seed, "seconds": args.seconds,
                              "trace": args.trace, "workloads": summary}))
            return 0
        if len(chosen) != 1:
            ap.error("one workload per run; use --repeat for several")
        detail, result = execute(chosen[0], args.seed, args.seconds, bool(args.trace))
    except (BenchError, TreeError, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
