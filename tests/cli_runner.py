"""Run the cablekit CLI in-process and capture what it answers.

`python -m cli_runner` (with this directory on the path) reads a JSON list of
[argv, data] pairs from stdin and prints the [exit, stdout, stderr] of each.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from cablekit.cli import main


def run_main(argv, data):
    """Run the CLI with CABLEKIT_DATA set to `data` (unset when None); the
    environment is restored on return."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("CABLEKIT_DATA", None)
        if data:
            os.environ["CABLEKIT_DATA"] = data
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


if __name__ == "__main__":
    print(json.dumps([run_main(argv, data) for argv, data in json.load(sys.stdin)]))
