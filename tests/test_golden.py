"""Golden corpus: frozen stdout and exit code of command line calls.

Each line of golden/commands.txt runs through `cli.main` in-process, as
written and again with `--json`, from inside golden/ so that
`script demo.txt` finds its file.  `script` runs only as written: its own
`--json` does not reach the lines it reads.  The expected bytes are in
golden/expected.json.  After a deliberate output change, rewrite them with

    PYTHONPATH=src python3 tests/test_golden.py --update
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys

import pytest

from lndfilt import cli, ideals

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXPECTED = os.path.join(GOLDEN, "expected.json")


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


def _expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("line", corpus())
def test_golden(line):
    want = _expected()[line]
    code, stdout = run(line)
    assert (code, stdout) == (want["exit"], want["stdout"])


def test_corpus_matches_expected_file():
    assert sorted(corpus()) == sorted(_expected())


@pytest.mark.parametrize("line", [ln for ln in corpus()
                                  if ln.split()[0] not in ("script", "selftest")])
def test_every_step_is_charged_to_gb_budget(line, monkeypatch):
    """A command that takes N reduction steps gives the same answer with
    --gb-budget=N and exits 4 with N - 1: every normal form it computes,
    family construction included, draws from the one budget."""
    calls = [0]
    step = ideals.Budget.step

    def counted(budget):
        calls[0] += 1
        step(budget)

    monkeypatch.setattr(ideals.Budget, "step", counted)
    want = run(line)
    steps = calls[0]
    assert run(line + " --gb-budget=%d" % steps) == want
    if steps:
        assert run(line + " --gb-budget=%d" % (steps - 1))[0] == 4


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit("usage: test_golden.py --update")
    data = {}
    for line in corpus():
        code, stdout = run(line)
        data[line] = {"exit": code, "stdout": stdout}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print("%d entries written to %s" % (len(data), EXPECTED))
