"""Command-line front end.

Subcommands::

    ber FILE                    Berezinian of the supermatrix in FILE
    integrate FILE --backend gaussian | box a1 b1 a2 b2 ...
                                (box bounds are textio rationals: 2, -1/3)
    unimodular FILE --subalgebra i,j,k
    examples list | run NAME
    verify SUITE [--seed N]     (--seed is ignored by unseeded suites)

Exit codes: 0 success / all checks passed, 1 mathematical failure or a
result too large to print, 2 usage or parse error.  Check reports are one
line per identity: ``PASS|FAIL <name> lhs=<value> rhs=<value>``.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .berezin import GAUSSIAN, BerezinSection, box_backend, integrate
from .errors import ParseError, SuperBerezinError
from .lie_super import SubalgebraSpec, unimodularity_check, validate
from .suites import EXAMPLES, SUITES, UNSEEDED
from .textio import (
    _Bad,
    _int,
    _interval,
    parse_structure_constants,
    parse_superfunction,
    parse_supermatrix,
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls:
    parsing leaves it unchanged, and no command mutates its defaults."""
    parser = argparse.ArgumentParser(
        prog="superberezin",
        description="exact Berezin integration and supergroup checks")
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="Berezinian of a supermatrix file")
    ber.add_argument("file")

    integ = sub.add_parser("integrate",
                           help="integrate a superfunction file exactly")
    integ.add_argument("file")
    integ.add_argument("--backend", nargs="+", default=["gaussian"],
                       metavar="SPEC",
                       help="'gaussian' or 'box a1 b1 a2 b2 ...'")

    unim = sub.add_parser("unimodular",
                          help="unimodularity of a quotient by a subalgebra")
    unim.add_argument("file", help="structure-constant file")
    unim.add_argument("--subalgebra", required=True,
                      help="comma-separated generator indices spanning h")

    ex = sub.add_parser("examples", help="worked built-in examples")
    ex.add_argument("action", choices=("list", "run"))
    ex.add_argument("name", nargs="?")

    ver = sub.add_parser("verify", help="run a seeded verification suite")
    ver.add_argument("suite", help="one of: " + ", ".join(sorted(SUITES)))
    ver.add_argument("--seed", type=int, default=0)
    return parser


def _read(path: str) -> str:
    """The text of the file at ``path``; OSError, as for a missing file,
    where it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8 text: {exc}") from None


def _emit(value, prefix: str = "") -> bool:
    """Print prefix + str(value); a value too long to print is an error."""
    try:
        text = prefix + str(value)
    except ValueError as exc:  # past the interpreter's int-to-str limit
        print(f"error: result too large to print ({exc})", file=sys.stderr)
        return False
    print(text)
    return True


def _cmd_ber(args) -> int:
    matrix = parse_supermatrix(_read(args.file))
    return 0 if _emit(matrix.berezinian()) else 1


def _word_error(words: list[str], bad: _Bad) -> ParseError:
    """The ParseError of ``bad`` in a command-line value, on line 1 at the
    word's column as if the words were joined by single separators."""
    column = sum(len(word) + 1 for word in words[:bad.k]) + 1
    return ParseError(bad.message, 1, column + bad.shift)


def _parse_backend(spec: list[str]):
    if spec == ["gaussian"]:
        return GAUSSIAN
    name = spec[0]
    try:
        if name == "box":
            if len(spec) % 2 == 0:
                raise _Bad("box backend needs an even number of bounds",
                           len(spec) - 1)
            # each pair read as an 'axis lo hi' line's bounds
            return box_backend(*(_interval(spec, k)
                                 for k in range(1, len(spec), 2)))
        # after a known name, the first extra word is the offending one
        raise _Bad(f"unknown backend {' '.join(spec)!r}",
                   1 if name == "gaussian" else 0)
    except _Bad as bad:
        raise _word_error(spec, bad) from None


def _cmd_integrate(args) -> int:
    f = parse_superfunction(_read(args.file))
    backend = _parse_backend(args.backend)
    return 0 if _emit(integrate(BerezinSection.make(f.shape, f), backend)) else 1


def _cmd_unimodular(args) -> int:
    algebra = parse_structure_constants(_read(args.file))
    report = validate(algebra)
    if not report.ok:
        for failure in report.failures:
            print(f"invalid structure constants: {failure}", file=sys.stderr)
        return 1
    span = set()
    words = args.subalgebra.split(",")
    try:
        for k, word in enumerate(words):
            if not word:
                continue
            i = _int(word, k)
            if not 0 <= i < algebra.dim:
                raise _Bad(f"subalgebra indices must lie in 0..{algebra.dim - 1}", k)
            span.add(i)
    except _Bad as bad:
        raise _word_error(words, bad) from None
    result = unimodularity_check(algebra, SubalgebraSpec(algebra, frozenset(span)))
    if result.verdict == "UNIMODULAR":
        print("UNIMODULAR")
    elif not _emit(result.witness_supertrace,
                   f"NOT_UNIMODULAR witness={result.witness_name} str="):
        return 1
    print(f"note: {result.note}")
    return 0


def _print_checks(lines) -> int:
    """Print one line per check; exit code 0 when all passed, else 1."""
    for line in lines:
        print(line.render())
    return 0 if all(line.passed for line in lines) else 1


def _cmd_examples(args) -> int:
    if args.action == "list":
        for name in sorted(EXAMPLES):
            print(f"{name}: {EXAMPLES[name][0]}")
        return 0
    if args.name is None:
        print("examples run needs a name; try 'examples list'",
              file=sys.stderr)
        return 2
    if args.name not in EXAMPLES:
        print(f"unknown example {args.name!r}; try 'examples list'",
              file=sys.stderr)
        return 2
    try:
        lines = EXAMPLES[args.name][1]()
    except SuperBerezinError as exc:
        print(f"error: examples run {args.name}: {exc}", file=sys.stderr)
        return 1
    return _print_checks(lines)


def _cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from "
              + ", ".join(sorted(SUITES)), file=sys.stderr)
        return 2
    fn = SUITES[args.suite]
    seeded = args.suite not in UNSEEDED
    try:
        lines = fn(seed=args.seed) if seeded else fn()
    except SuperBerezinError as exc:
        print(f"error: verify {args.suite}: {exc}", file=sys.stderr)
        return 1
    code = _print_checks(lines)
    used = f"seed {args.seed}" if seeded else "unseeded"
    print(f"{sum(line.passed for line in lines)}/{len(lines)} checks passed "
          f"({used})")
    return code


_DISPATCH = {
    "ber": _cmd_ber,
    "integrate": _cmd_integrate,
    "unimodular": _cmd_unimodular,
    "examples": _cmd_examples,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except SuperBerezinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
