"""The benchmark's three workloads: inputs made from the seed, the items
that run on them, and the oracle that checks each item's answer.

A workload's ``setup`` returns a ``Plan``: a list of rounds, each holding
every item kind once.  Every round repeats the same inputs, the default
ones (seed 0) whose answers are frozen in ``frozen.json``; the workload
seed shuffles the item order of rounds 1 and later.  The timing metrics
take each item kind at its median repetition.

An item's ``run()`` returns ``None`` when its answer passed the oracle and
a one-line reason otherwise.  Items call into the program through module
attributes looked up at call time, so an installed tracer sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Callable

DEFAULT_SEED = 0


@dataclass
class Item:
    kind: str
    run: Callable[[], str | None]


@dataclass
class Plan:
    rounds: list[list[Item]]
    record: dict = field(default_factory=dict)


def shuffled_plan(workload: str, seed: int, rounds: int, items: list[Item],
                  record: dict) -> Plan:
    """The same items every round; rounds 1.. in a seed-shuffled order."""
    plan = []
    for r in range(rounds):
        order = list(items)
        if r:
            random.Random(f"{workload}/{seed}/{r}").shuffle(order)
        plan.append(order)
    return Plan(plan, {**record, "orders": [[item.kind for item in order]
                                            for order in plan]})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main(argv)`` in-process; exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# verify-sweep: what a user runs


SUITES = ("berezinian", "berezinian-line", "change-of-variables",
          "fubini-signs", "module-rule", "support", "unimodularity",
          "fubini-quotients", "product-formula", "invariant-density")
EXAMPLES = ("fubini-ax+b", "heisenberg-fubini", "product-ax+b",
            "unimod-gl11", "unimod-borel")


def example_kind(name: str) -> str:
    return "ex-" + name.replace("+", "")


def _check_lines(code: int, text: str, summary: bool) -> tuple[list[str], str | None]:
    """Split CLI output into check lines; reason when it is not all PASS."""
    lines = text.splitlines()
    checks = lines[:-1] if summary else lines
    if code != 0:
        return checks, f"exit code {code}"
    if not checks:
        return checks, "no check lines"
    bad = next((line for line in checks if not line.startswith("PASS ")), None)
    if bad is not None:
        return checks, f"not PASS: {bad[:120]}"
    if summary and not lines[-1].startswith(f"{len(checks)}/{len(checks)} checks passed"):
        return checks, f"summary: {lines[-1][:120]}"
    return checks, None


def setup_verify_sweep(seed: int, rounds: int, workdir: str,
                       frozen: dict) -> Plan:
    """All suites at the default ``--seed 0`` and all examples, every round.

    The default sweep is what ``superberezin verify S`` runs, and its check
    lines are frozen, so every item is checked against its digest in every
    round.  The seed shuffles the item order of rounds 1 and later.  Suite
    inputs stay at the default seed: the median items' cost moves up to
    25% with the suite seed, which spread the metrics past their bounds.
    """
    cli = importlib.import_module("superberezin.cli")
    want = frozen["verify-sweep"]

    def item(kind: str, argv: list[str], summary: bool) -> Item:
        def run():
            code, text = call_cli(cli, argv)
            checks, reason = _check_lines(code, text, summary)
            if reason is None and digest("\n".join(checks)) != want[kind]:
                reason = "check lines differ from the frozen digest"
            return reason
        return Item(kind, run)

    items = ([item(name, ["verify", name, "--seed", str(DEFAULT_SEED)], True)
              for name in SUITES]
             + [item(example_kind(name), ["examples", "run", name], False)
                for name in EXAMPLES])
    return shuffled_plan("verify-sweep", seed, rounds, items,
                         {"suite_seed": DEFAULT_SEED, "suites": list(SUITES),
                          "examples": list(EXAMPLES)})


# ---------------------------------------------------------------------------
# solver-ladder: the exact solvers at the largest sizes that fit a run

KOSZUL_RUNGS = ((1, 1), (2, 1), (1, 2), (2, 2))        # cap p + q + 2
HAAR_RUNGS = (("R22_d4", "translation_group(2, 2)", 4),
              ("R33_d2", "translation_group(3, 3)", 2),
              ("gl11_d4", "gl11_group()", 4),
              ("heis_d4", "heisenberg_group()", 4))


def lie_digest(g) -> str:
    brackets = sorted((k, tuple(str(c) for c in v)) for k, v in g.brackets.items())
    return digest(repr((g.names, tuple(str(p) for p in g.parities), brackets)))


def setup_solver_ladder(seed: int, rounds: int, workdir: str,
                        frozen: dict) -> Plan:
    koszul = importlib.import_module("superberezin.koszul")
    supergroup = importlib.import_module("superberezin.supergroup")
    groups = importlib.import_module("superberezin.groups")
    superdomain = importlib.import_module("superberezin.superdomain")
    want = frozen["solver-ladder"]

    charts = {
        "R22_d4": groups.translation_group(2, 2),
        "R33_d2": groups.translation_group(3, 3),
        "gl11_d4": groups.gl11_group(),
        "heis_d4": groups.heisenberg_group(),
    }
    axb = groups.axb_group()
    a_inverse = superdomain.SuperFunction.from_polynomial(
        axb.shape, superdomain.Polynomial.variable(axb.shape.m, 0, -1))
    gl11 = charts["gl11_d4"]
    gl11_full = supergroup.full_subgroup(gl11)

    def checked(kind: str, answer) -> Callable[[], str | None]:
        def run():
            got = answer()
            if got != want[kind]:
                return f"answer {got!r} differs from the frozen {want[kind]!r}"
            return None
        return run

    def koszul_rung(p: int, q: int):
        def answer():
            rank, parity = koszul.homological_berezinian(p, q, p + q + 2)
            return [rank, str(parity)]
        return answer

    def haar_rung(G, side: str, degree: int, prefactor=None):
        def answer():
            result = supergroup.solve_invariant_density(
                G, side=side, max_degree=degree, prefactor=prefactor)
            return [result.dimension, str(result.density)]
        return answer

    def lie_answer():
        return lie_digest(supergroup.group_lie_algebra(gl11))

    def modular_answer():
        return [str(x) for x in supergroup.modular_berezinian(gl11, gl11_full)]

    def validate_answer():
        report = supergroup.validate_group(gl11)
        return [report.ok, str(report)]

    answers = {f"kz{p}{q}": koszul_rung(p, q) for p, q in KOSZUL_RUNGS}
    for name, _, degree in HAAR_RUNGS:
        answers[f"haar_{name}"] = haar_rung(charts[name], "left", degree)
    answers["haar_axb_right"] = haar_rung(axb, "right", 4, a_inverse)
    answers["lie_gl11"] = lie_answer
    answers["modular_gl11"] = modular_answer
    answers["validate_gl11"] = validate_answer
    items = [Item(kind, checked(kind, fn)) for kind, fn in answers.items()]

    return shuffled_plan("solver-ladder", seed, rounds, items, {
        "koszul_rungs": [f"({p}|{q}) cap {p + q + 2}" for p, q in KOSZUL_RUNGS],
        "haar_rungs": [f"{chart} left degree {d}" for _, chart, d in HAAR_RUNGS]
        + ["axb_group() right degree 4 prefactor a^-1"],
        "gl11": ["group_lie_algebra", "modular_berezinian(full_subgroup)",
                 "validate_group"],
    })


# ---------------------------------------------------------------------------
# berezinian-scale: a few large Berezinians through the CLI

MATRIX_SIZES = (3, 4, 5)            # (d|d) blocks
ALGEBRA_SIZES = (6, 8)              # generators of the Grassmann algebra


def matrix_kind(d: int, n: int) -> str:
    return f"ber_{d}{d}_L{n}"


def setup_berezinian_scale(seed: int, rounds: int, workdir: str,
                           frozen: dict) -> Plan:
    """One default-seed pair per kind, written as files in set-up, and the
    same pairs every round in a seed-shuffled order.  A pair's cost varies
    up to 2x with its matrix seed, which spread the metrics past their
    bounds when the seed drew the matrices."""
    cli = importlib.import_module("superberezin.cli")
    suites = importlib.import_module("superberezin.suites")
    textio = importlib.import_module("superberezin.textio")
    want = frozen["berezinian-scale"]

    def item(kind: str, n: int, x, y, path_x: str, path_y: str) -> Item:
        def run():
            printed = []
            for path in (path_x, path_y):
                code, text = call_cli(cli, ["ber", path])
                if code != 0:
                    return f"ber exit code {code}"
                printed.append(text)
            bx, by = (textio.parse_grassmann(text.strip(), n) for text in printed)
            if bx != x.berezinian():
                return "printed Ber(X) does not re-parse to the in-process Ber(X)"
            if (x * y).berezinian() != bx * by:
                return "Ber(XY) != Ber(X) Ber(Y)"
            if digest("".join(printed)) != want[kind]:
                return "printed Berezinians differ from the frozen digest"
            return None
        return Item(kind, run)

    items = []
    for n in ALGEBRA_SIZES:
        for d in MATRIX_SIZES:
            kind = matrix_kind(d, n)
            rng = random.Random(f"berezinian-scale/{DEFAULT_SEED}/{kind}")
            x = suites.random_even_supermatrix(rng, d, d, n)
            y = suites.random_even_supermatrix(rng, d, d, n)
            paths = []
            for label, matrix in (("X", x), ("Y", y)):
                path = os.path.join(workdir, f"{kind}_{label}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(textio.format_supermatrix(matrix))
                paths.append(path)
            items.append(item(kind, n, x, y, paths[0], paths[1]))
    return shuffled_plan("berezinian-scale", seed, rounds, items, {
        "matrix_seed": DEFAULT_SEED,
        "matrices": [f"({d}|{d}) over Lambda_{n}"
                     for n in ALGEBRA_SIZES for d in MATRIX_SIZES],
    })


# name -> (setup, nominal seconds per round at the parent commit,
#          metric name of each item kind's median in the traced run)
WORKLOADS = {
    "verify-sweep": (setup_verify_sweep, 2.9, {
        **{name: f"suites.{name}_ms" for name in SUITES},
        **{example_kind(name): f"supergroup.{example_kind(name)}_ms"
           for name in EXAMPLES[:3]},
        **{example_kind(name): f"lie_super.{example_kind(name)}_ms"
           for name in EXAMPLES[3:]},
    }),
    "solver-ladder": (setup_solver_ladder, 3.9, {
        **{f"kz{p}{q}": f"koszul.kz{p}{q}_ms" for p, q in KOSZUL_RUNGS},
        **{f"haar_{name}": f"supergroup.haar_{name}_ms" for name, _, _ in HAAR_RUNGS},
        "haar_axb_right": "supergroup.haar_axb_right_ms",
        "lie_gl11": "supergroup.lie_gl11_ms",
        "modular_gl11": "supergroup.modular_gl11_ms",
        "validate_gl11": "supergroup.validate_gl11_ms",
    }),
    "berezinian-scale": (setup_berezinian_scale, 2.4, {
        matrix_kind(d, n): f"supermatrix.{matrix_kind(d, n)}_ms"
        for n in ALGEBRA_SIZES for d in MATRIX_SIZES
    }),
}
