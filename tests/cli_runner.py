"""Run the cablekit CLI in-process and capture what it answers.

`python -m cli_runner` (with this directory on the path) reads a JSON list of
argv lists from stdin and prints the [exit, stdout, stderr] of each.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from cablekit.cli import main


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    print(json.dumps([run_main(argv) for argv in json.load(sys.stdin)]))
