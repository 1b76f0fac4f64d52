"""Golden transcripts of the CLI: every verify suite, every example, and
``ber`` on the largest matrices of the benchmark.

Each ``.txt`` file under tests/data/golden/ holds one run: a first line
``exit <code>``, then the exact standard output.  The test re-runs the
command in-process and compares the bytes, so any change to a printed
value, a check line or an exit code shows here.  The ``ber`` runs read
the seed-0 (5|5) X and Y over Lambda_6 and Lambda_8 of the benchmark's
``berezinian-scale`` workload, drawn as ``bench/workloads.py`` draws them
and written by ``format_supermatrix`` into the ``.matrix`` files beside
them, so they pin the draw, the writer, the reader and the printer on
values of 30 to 70 terms with Fraction coefficients.

To write the files afresh (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import random
import sys

import pytest

from superberezin import cli
from superberezin.suites import SUITES, random_even_supermatrix
from superberezin.textio import format_supermatrix

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
SEEDS = (0, 1, 7)

RUNS = ([(f"verify_{suite}_seed{seed}", ["verify", suite, "--seed", str(seed)])
         for suite in sorted(SUITES) for seed in SEEDS]
        + [(f"examples_{name.replace('+', '')}", ["examples", "run", name])
           for name in sorted(cli.EXAMPLES)])
BER_KINDS = ("ber_55_L6", "ber_55_L8")
BER_RUNS = [f"{kind}_{label}" for kind in BER_KINDS for label in "XY"]


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


def _read(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8",
              newline="") as handle:
        return handle.read()


def _write(name, text):
    with open(os.path.join(GOLDEN, name), "w", encoding="utf-8",
              newline="") as handle:
        handle.write(text)


def drawn_matrices(kind):
    """The seed-0 X and Y of a ``berezinian-scale`` kind ``ber_55_L<n>``,
    from the generator seeded as the benchmark seeds it."""
    rng = random.Random(f"berezinian-scale/0/{kind}")
    n = int(kind.rsplit("_L", 1)[1])
    return {label: random_even_supermatrix(rng, 5, 5, n) for label in "XY"}


@pytest.mark.parametrize("kind", BER_KINDS)
def test_ber_inputs_are_the_written_benchmark_draws(kind):
    for label, matrix in drawn_matrices(kind).items():
        assert format_supermatrix(matrix) == _read(f"{kind}_{label}.matrix")


@pytest.mark.parametrize("name", BER_RUNS)
def test_ber_transcript_is_unchanged(name):
    path = os.path.join(GOLDEN, f"{name}.matrix")
    assert transcript(["ber", path]) == _read(f"{name}.txt")


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in RUNS:
        _write(f"{name}.txt", transcript(argv))
    for kind in BER_KINDS:
        for label, matrix in drawn_matrices(kind).items():
            _write(f"{kind}_{label}.matrix", format_supermatrix(matrix))
            _write(f"{kind}_{label}.txt", transcript(
                ["ber", os.path.join(GOLDEN, f"{kind}_{label}.matrix")]))
    sys.exit(0)
