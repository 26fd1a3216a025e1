"""Paths of the checkout under test, and the import guard for its ``src/``."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cablekit"
OUT = BENCH / "out"


class TreeError(RuntimeError):
    """The checkout does not hold the package sources to benchmark."""


def require_tree() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise TreeError(f"no cablekit sources at {PACKAGE}; run from a checkout of the repository")


def under_src(path: str) -> bool:
    try:
        Path(path).resolve().relative_to(SRC.resolve())
    except ValueError:
        return False
    return True


def import_cablekit():
    """Import cablekit from this checkout's src/ and nowhere else."""
    require_tree()
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    import cablekit

    if not under_src(cablekit.__file__):
        raise TreeError(f"cablekit imported from {cablekit.__file__}, not from {SRC}")
    return cablekit


def cli_env() -> dict:
    """Environment for `python -m cablekit.cli` subprocesses: src/ first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# The host's speed drifts by up to a factor of two, over milliseconds and
# over minutes (shared vCPUs).  Every process of a run therefore times a
# fixed probe between requests, one that does the same kind of work as the
# requests and never imports cablekit, and scales each request to the speed
# at which the probe takes its ``ref_s``.


class Probe:
    """A fixed piece of work: ``sample()`` times it once; ``ref_s`` is its
    time at the reference speed; a pass samples it again once ``every_s``
    has elapsed."""

    def __init__(self, work, ref_s, every_s):
        self.work, self.ref_s, self.every_s = work, ref_s, every_s

    def sample(self) -> float:
        t = time.perf_counter()
        self.work()
        return time.perf_counter() - t


def _python_loop() -> None:
    """Integer matrix products, Fraction sums and dict updates: the
    operations cablekit's exact arithmetic is made of."""
    for _ in range(2):
        m = [[(i * 7 + j * 3) % 5 - 2 for j in range(8)] for i in range(8)]
        a = m
        for _ in range(5):
            a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in a]
        f = Fraction(0)
        for i in range(1, 150):
            f += Fraction(i % 7 + 1, i % 11 + 2)
        d: dict = {}
        for i in range(600):
            d[i % 97] = d.get(i % 97, 0) + i


def _bare_interpreter() -> None:
    """Start and stop an interpreter that imports nothing of the package."""
    subprocess.run([sys.executable, "-c", "pass"], env=cli_env(), cwd=ROOT,
                   capture_output=True, check=True, timeout=60)


# in-process requests are scaled by the loop, requests and set-ups that start
# a process by a bare interpreter start
IN_PROCESS = Probe(_python_loop, 2.5e-3, 0.05)
NEW_PROCESS = Probe(_bare_interpreter, 0.065, 0.5)


def pin_cpu() -> int:
    """Keep this process and its children on one CPU, so each probe sample
    runs where the requests around it run."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
