"""Golden transcripts of the CLI: every verify suite and every example.

Each file under tests/data/golden/ holds one run: a first line
``exit <code>``, then the exact standard output.  The test re-runs the
command in-process and compares the bytes, so any change to a printed
value, a check line or an exit code shows here.

To write the files afresh (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import sys

import pytest

from superberezin import cli
from superberezin.suites import SUITES

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
SEEDS = (0, 1, 7)

RUNS = ([(f"verify_{suite}_seed{seed}", ["verify", suite, "--seed", str(seed)])
         for suite in sorted(SUITES) for seed in SEEDS]
        + [(f"examples_{name.replace('+', '')}", ["examples", "run", name])
           for name in sorted(cli.EXAMPLES)])


def transcript(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name,argv", RUNS, ids=[name for name, _ in RUNS])
def test_transcript_is_unchanged(name, argv):
    with open(os.path.join(GOLDEN, f"{name}.txt"), encoding="utf-8",
              newline="") as handle:
        want = handle.read()
    assert transcript(argv) == want


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in RUNS:
        with open(os.path.join(GOLDEN, f"{name}.txt"), "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(transcript(argv))
    sys.exit(0)
