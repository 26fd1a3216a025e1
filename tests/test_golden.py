"""Golden CLI corpus: the stdout of every case, in --json and human mode,
byte for byte, plus its exit code and stderr.

``golden/cases.json`` maps a case name to its argv (file arguments are
paths relative to ``golden/``), exit code and stderr; the expected stdout of
each mode is ``golden/expected/<name>.json`` and ``<name>.txt``.  After an
intended output change, regenerate the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from cli_runner import run_main

GOLDEN = Path(__file__).parent / "golden"
CASES_PATH = GOLDEN / "cases.json"
CASES = json.loads(CASES_PATH.read_text(encoding="utf-8"))
MODES = {"json": ["--json"], "txt": []}


def run(case: dict, mode: str) -> tuple[int, bytes, str]:
    argv = MODES[mode] + [
        str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]
    ]
    code, out, err = run_main(argv)
    return code, out.encode("utf-8"), err


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, mode):
    case = CASES[name]
    code, out, err = run(case, mode)
    assert out == (GOLDEN / "expected" / f"{name}.{mode}").read_bytes()
    assert (code, err) == (case["exit"], case["stderr"])


def regenerate() -> None:
    (GOLDEN / "expected").mkdir(exist_ok=True)
    for name, case in sorted(CASES.items()):
        for mode in MODES:
            code, out, err = run(case, mode)
            (GOLDEN / "expected" / f"{name}.{mode}").write_bytes(out)
            case["exit"], case["stderr"] = code, err
    CASES_PATH.write_text(json.dumps(CASES, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
