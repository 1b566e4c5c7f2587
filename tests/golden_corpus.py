"""The golden corpus and its runner, shared by test_golden and
test_reachability; it imports no pytest, so the reachability collector
also runs on an interpreter that has none.

Each line of golden/commands.txt runs through `cli.main` in-process, as
written and again with `--json`, from inside golden/ so that
`script demo.txt` finds its file.  `script` runs only as written: its own
`--json` does not reach the lines it reads.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex

from lndfilt import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def corpus():
    with open(os.path.join(GOLDEN, "commands.txt"), encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    out = []
    for line in lines:
        if not line or line.startswith("#"):
            continue
        out.append(line)
        if not line.startswith("script"):
            out.append(line + " --json")
    return out


def run(line):
    """(exit code, stdout) of one command, run from inside golden/."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(shlex.split(line))
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()
