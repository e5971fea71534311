"""Batch command-line front door.

Exit codes: 0 = all asserted checks passed, 1 = at least one asserted check
failed, 2 = usage, parse or guard error, 3 = internal error (an unexpected
exception; never reported as a failed check).  Informational findings never
affect the exit status.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .algfile import AlgebraFile, entry_to_algebra_file, render_algebra_file
from .bunch import RRhoAlgebra
from .catalog import build_entry, catalog_names
from .core import WorkbenchError, forced
from .findings import render_findings
from .jordan import MODE_FULL, MODE_REDUCED, TripleWithOperator, derived_triple
from .lie import convert_params, convert_params_inverse, derived_bracket
from .searches import run_search
from .suites import SUITES, load_input, run_suite


class _Parser(argparse.ArgumentParser):
    """Raises a usage error where argparse prints usage and exits, so that
    main reports it in one line."""

    def error(self, message):
        raise WorkbenchError(f"{self.prog}: {message}")


def _check_arguments(check: argparse.ArgumentParser) -> None:
    check.add_argument("input", help="algebra file path or catalog:NAME[?params]")
    check.add_argument("--suite", required=True, choices=sorted(SUITES))
    check.add_argument("--operator", help="primary operator name (suite-dependent default)")
    check.add_argument("--operator2", help="secondary operator name")
    check.add_argument("--variant", help="triple-system identity variant (jacobson|alternate)")
    check.add_argument("--force", action="store_true", help="override the dimension guard")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--out", help="write the report to a file instead of stdout")


def _derive_arguments(derive: argparse.ArgumentParser) -> None:
    derive.add_argument("input")
    derive.add_argument(
        "--what",
        required=True,
        choices=("derived-bracket", "quadratic-bracket", "derived-triple"),
    )
    derive.add_argument("--mode", choices=(MODE_FULL, MODE_REDUCED), default=MODE_REDUCED)
    derive.add_argument("--operator", default="R")
    derive.add_argument("--operator2", default="rho")
    derive.add_argument("--force", action="store_true", help="override the dimension guard")
    derive.add_argument("--out", help="output file (stdout when omitted)")


def _catalog_arguments(catalog: argparse.ArgumentParser) -> None:
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_sub.add_parser("list")
    export = catalog_sub.add_parser("export")
    export.add_argument("name", help="catalog name, e.g. example2-gl2?q=diag:1,2")
    export.add_argument("--force", action="store_true", help="override the dimension guard")
    export.add_argument("--out")


def _search_arguments(search: argparse.ArgumentParser) -> None:
    search.add_argument("target")
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--trials", type=int, required=True)
    search.add_argument("--dim", type=int)
    search.add_argument("--entry-bound", type=int, default=3)
    search.add_argument("--force", action="store_true", help="override the dimension guard")
    search.add_argument("--format", choices=("text", "json"), default="json")
    search.add_argument("--out")


def _convert_arguments(convert: argparse.ArgumentParser) -> None:
    convert.add_argument("input")
    convert.add_argument("--to", required=True, choices=tuple(_CONVERSIONS))
    for slot, (flag, which) in enumerate((("--operator", "first"), ("--operator2", "second"))):
        defaults = ", ".join(f"{read[slot]} for --to {to}" for to, (read, _, _) in _CONVERSIONS.items())
        convert.add_argument(flag, help=f"{which} operator name (default {defaults})")
    convert.add_argument("--out")


def _findings_arguments(findings: argparse.ArgumentParser) -> None:
    findings.add_argument("--out")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for every subcommand, or for ``command`` alone when it names
    one.  A subcommand's parser does not depend on its siblings, so either
    parses that subcommand's argv to the same namespace and the same errors;
    building one of them instead of all saves most of the set-up."""
    parser = _Parser(
        prog="opalg",
        description="Exact verification workbench for Lie algebras and Jordan "
        "triple systems with operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        help_line, add_arguments, _ = _SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise WorkbenchError(f"cannot write output {out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    options = {}
    if args.operator:
        options["operator"] = args.operator
    if args.operator2:
        options["operator2"] = args.operator2
    if args.variant:
        options["variant"] = args.variant
    if args.force:
        options["force"] = True
    report = run_suite(args.input, args.suite, options)
    _write(report.to_json() if args.format == "json" else report.to_text(), args.out)
    return report.exit_code()


def _cmd_derive(args) -> int:
    af, _ = load_input(args.input)
    if args.what == "derived-bracket":
        out = AlgebraFile(
            af.dimension,
            af.basis_names,
            derived_bracket(af.require_bracket(), af.require_operator(args.operator)),
        )
    elif args.what == "quadratic-bracket":
        a = RRhoAlgebra(
            af.require_bracket(),
            af.require_operator(args.operator),
            af.require_operator(args.operator2),
        )
        out = AlgebraFile(af.dimension, af.basis_names, a.bracket_rho)
    else:
        triple = af.require_triple()
        op = af.require_operator(args.operator)
        if args.mode == MODE_FULL:
            derived = derived_triple(triple, op, MODE_FULL)
        else:
            myb, derived = TripleWithOperator(triple, op).triple_r
            if derived is None:
                raise WorkbenchError(
                    "reduced mode requires the triple mYB identity (fails at "
                    f"{myb.witness.indices}); rerun with --mode full"
                )
        out = AlgebraFile(af.dimension, af.basis_names, triple=derived)
    _write(render_algebra_file(out), args.out)
    return 0


def _cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        for name in catalog_names():
            sys.stdout.write(name + "\n")
        return 0
    entry = build_entry(args.name)
    _write(render_algebra_file(entry_to_algebra_file(entry)), args.out)
    return 0


def _cmd_search(args) -> int:
    report = run_search(args.target, args.seed, args.trials, args.dim, args.entry_bound)
    _write(report.to_json() if args.format == "json" else report.to_text(), args.out)
    return 0


# --to -> (the operators it reads by default, the conversion, the names it writes)
_CONVERSIONS = {
    "xi": (("R1", "R2"), convert_params, ("R", "xi")),
    "pair": (("R", "xi"), convert_params_inverse, ("R1", "R2")),
}


def _cmd_convert(args) -> int:
    af, _ = load_input(args.input)
    (first, second), convert, written = _CONVERSIONS[args.to]
    pair = convert(af.require_operator(args.operator or first), af.require_operator(args.operator2 or second))
    out = AlgebraFile(af.dimension, af.basis_names, af.bracket, af.triple, dict(zip(written, pair)))
    _write(render_algebra_file(out), args.out)
    return 0


def _cmd_findings(args) -> int:
    _write(render_findings(), args.out)
    return 0


# name -> (help line, adds the subcommand's arguments, runs it), in the order --help lists them
_SUBCOMMANDS = {
    "check": ("run a named check suite", _check_arguments, _cmd_check),
    "derive": ("compute a derived structure and write it out", _derive_arguments, _cmd_derive),
    "catalog": ("list or export catalog entries", _catalog_arguments, _cmd_catalog),
    "search": ("seeded search for failure witnesses", _search_arguments, _cmd_search),
    "convert": ("convert between (R1,R2) and (R,xi) operator pairs", _convert_arguments, _cmd_convert),
    "findings": ("emit the open-questions findings document", _findings_arguments, _cmd_findings),
}


def main(argv=None) -> int:
    if gc.get_freeze_count() == 0:
        # Everything alive now (interpreter, stdlib, opalg's modules and
        # formulas) lives until exit.  Frozen, the cyclic collector never walks
        # it again, during the request or at interpreter shutdown; what the
        # request allocates is collected as before.  Once per process.
        gc.freeze()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit:  # --help, which prints and exits 0
        return 0
    except WorkbenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _, _, run = _SUBCOMMANDS[args.command]
    try:
        with forced(getattr(args, "force", False)):
            return run(args)
    except WorkbenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # the boundary: a crash must not look like exit 1
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
