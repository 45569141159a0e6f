"""Command-line front end for the census, filter, and formula experiments.

Subcommands
-----------
census          exact count of distinct power products in one box vs the main term
e-set           size and density of the filtered representative set
lemmas          exact per-condition counts against their theoretical envelopes
verify-theorem  uniqueness-of-representation check on the filtered set
asymptotic      main term and leading-term brackets for one box
converge        census sweep along a scale sequence (equal/separated/custom shapes)

Each takes only the flags it reads.  The first four take -A and -B (required),
--C, --budget, --format and --out; asymptotic drops --C and --budget, since the
main term reads no cutoff and charges nothing.  converge adds --scales, --shape
and -n: custom scales the -A/-B box, equal and separated take -n instead.

Reports are JSON by default: {"config": ..., "results": ..., "metadata":
{"elapsed_ms", "version"}}.  Floats are normalized to 12 significant digits
and timing lives only in the metadata block, so the config and results
sections are bytewise reproducible run to run.  CSV output emits the same
numbers as plot-ready rows.  Exit status: 0 on success, 1 when a uniqueness
violation is found, 2 on usage or resource errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, fields as dataclass_fields
from decimal import Decimal, InvalidOperation

from . import __version__
from .core import DEFAULT_BUDGET, Bounds, BudgetError, ConfigError, FactorTable
from .conditions import FilterParameter, count_e_set, default_cutoff
from .smooth import check_condition
from .asymptotics import leading_term_envelope, main_term
from .census import CensusReport, convergence_run, run_census, verify_unique_representation

__all__ = ["parse_args", "run", "main"]

_CUTOFF_COMMANDS = {"e-set", "lemmas", "verify-theorem"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logforms",
        description="Exact census and asymptotic checks for distinct rationals "
                    "built from bounded integer powers.",
    )
    parser.set_defaults(factors=None, cutoff=None, budget=None, shape=None)  # unset flags
    sub = parser.add_subparsers(dest="command", required=True)
    for name, what in (
        ("census", "count distinct products in one box"),
        ("e-set", "count the filtered representative set"),
        ("lemmas", "exact condition counts vs their envelopes"),
        ("asymptotic", "main term and leading-term brackets"),
        ("verify-theorem", "uniqueness-of-representation check"),
        ("converge", "census sweep along a scale sequence"),
    ):
        command = sub.add_parser(name, help=what)
        boxed = name != "converge"
        if not boxed:
            command.add_argument("--scales", required=True, metavar="LIST",
                                 help="comma-separated scale values, e.g. 10,20,40")
            command.add_argument("--shape", choices=("equal", "separated", "custom"),
                                 default="equal", help="custom scales -A/-B; the others take -n")
            command.add_argument("-n", dest="factors", type=int, metavar="N",
                                 help="number of factors of an equal or separated box")
        command.add_argument("-A", dest="bases", required=boxed, metavar="LIST",
                             help="comma-separated base bounds, e.g. 50,60")
        command.add_argument("-B", dest="exps", required=boxed, metavar="LIST",
                             help="comma-separated exponent bounds, e.g. 4,5")
        if name != "asymptotic":  # the main term reads no cutoff and is not charged
            command.add_argument("--C", dest="cutoff", type=float, metavar="CUTOFF",
                                 help="filter cutoff override (>= 2); "
                                      "default is min(B_i, ln A_i)")
            command.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, metavar="N",
                                 help="work budget (default 1e8), charged before each "
                                      "stage: census coordinate powers times key words and "
                                      "candidate sums, base tuples (on pairs at most the "
                                      "sum of A_i ceil(ln(A_i+1)) "
                                      "cells), condition-3 half sums (on pairs, coefficient "
                                      "pairs), uniqueness-check members, then their key words")
        command.add_argument("--format", choices=("json", "csv"), default="json")
        command.add_argument("--out", dest="output_path", metavar="PATH",
                             help="write the report here instead of stdout")
    return parser


def _budget(text: str) -> int:
    """--budget exactly: an integer, also in scientific notation such as 1e9.
    A value past 4300 digits, int()'s limit on integer strings, is refused unexpanded."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("NaN")
    if not value.is_finite() or value != value.to_integral_value() or value.adjusted() >= 4300:
        raise argparse.ArgumentTypeError(f"expected an integer such as 1e9, got {text!r}")
    return int(value)


def _int_list(text: str, flag: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list, got {text!r}")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse and validate; exits with status 2 on any usage problem.

    The namespace also carries ``bounds`` and ``param`` (None when unset or
    unread), ``scales`` as a tuple, and ``factors``: -n, or len(-A) if given."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    scales = None
    if ns.command == "converge":
        wanted = ("-A", "-B") if ns.shape == "custom" else ("-n",)
        for flag, value in (("-A", ns.bases), ("-B", ns.exps), ("-n", ns.factors)):
            if (value is None) == (flag in wanted):
                verb = "requires" if flag in wanted else "takes no"
                parser.error(f"converge --shape {ns.shape} {verb} {flag}")
        scales = _int_list(ns.scales, "--scales", parser)
        if any(s < 1 for s in scales):
            parser.error("--scales values must be >= 1")
        if ns.factors is not None and ns.factors < 1:
            parser.error("-n must be >= 1")

    bounds = None
    if ns.bases is not None:  # -B comes with -A, by argparse or the converge rule
        try:
            bounds = Bounds(_int_list(ns.bases, "-A", parser), _int_list(ns.exps, "-B", parser))
        except ValueError as exc:
            parser.error(str(exc))

    if ns.budget is not None and ns.budget < 1:
        parser.error("--budget must be >= 1")

    # --C, else the default rule; the filter commands need one, converge (whose
    # boxes each have their own default) takes only --C, and asymptotic reads none
    param = None
    try:
        if ns.cutoff is not None:
            param = FilterParameter.from_cutoff(ns.cutoff)
        elif ns.command not in ("asymptotic", "converge"):
            param = default_cutoff(bounds)
    except ConfigError as exc:
        if ns.cutoff is not None or ns.command in _CUTOFF_COMMANDS:
            parser.error(str(exc))

    ns.bounds, ns.param, ns.scales = bounds, param, scales
    ns.factors = ns.factors if bounds is None else bounds.n
    return ns


def _normalize(value):
    """12-significant-digit float normalization, applied recursively; inf and NaN become None."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _normalize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(item) for item in value]
    return value


def _report_rows(report, scale=None) -> dict:
    row = {} if scale is None else {"scale": scale}
    row.update(base_max=list(report.bounds.base_max), exp_max=list(report.bounds.exp_max))
    for field in dataclass_fields(CensusReport)[1:]:  # the fields after bounds
        row[field.name] = getattr(report, field.name)
    return row


def _execute(config: argparse.Namespace):
    """Returns (results, csv_rows, csv_fields, violation_found)."""
    bounds, param = config.bounds, config.param

    if config.command == "asymptotic":  # needs no factor table
        lower, upper = leading_term_envelope(bounds)
        results = {
            "main_term": main_term(bounds),
            "envelope_lower": lower,
            "envelope_upper": upper,
            "separated_term": upper,
        }
        return results, [results], list(results), False

    if config.command == "converge":
        outcome = convergence_run(
            config.scales,
            config.shape,
            factors=config.factors,
            base=bounds,
            budget=config.budget,
            param=param,
        )
        rows = [
            _report_rows(report, scale)
            for scale, report in zip(config.scales, outcome.reports)
        ]
        results = {
            "shape": config.shape,
            "scales": list(config.scales),
            "truncated_at": outcome.truncated_at,
            "reports": rows,
        }
        fields = ["scale", "base_max", "exp_max"]  # the header of _report_rows, also with no row
        fields += [field.name for field in dataclass_fields(CensusReport)[1:]]
        return results, rows, fields, False

    # the sieve runs on the table's first use, after the stage's box-only charge
    table = FactorTable(max(bounds.base_max))
    if config.command == "census":
        report = run_census(bounds, table, budget=config.budget, param=param)
        results = _report_rows(report)
        return results, [results], list(results), False

    if config.command == "e-set":
        count, density = count_e_set(bounds, param, table, budget=config.budget)
        results = {
            "count": count,
            "density": density,
            "cutoff": param.cutoff,
            "coeff_bound": param.coeff_bound,
        }
        return results, [results], list(results), False

    if config.command == "lemmas":
        rows = [
            asdict(check_condition(condition, bounds, param, table, budget=config.budget))
            for condition in (1, 2, 3)
        ]
        results = {
            "cutoff": param.cutoff,
            "coeff_bound": param.coeff_bound,
            "conditions": rows,
        }
        return results, rows, list(rows[0]), False

    # verify-theorem, the one command left
    violations = verify_unique_representation(
        bounds, table, param=param, budget=config.budget
    )
    e_count = count_e_set(bounds, param, table, budget=config.budget)[0]
    fields = ["value", "first_bases", "first_exps", "second_bases", "second_exps"]
    rows = [
        dict(zip(fields, (str(v.value), list(v.first.bases), list(v.first.exps),
                          list(v.second.bases), list(v.second.exps))))
        for v in violations
    ]
    results = {
        "checked_e_count": e_count,
        "violation_count": len(rows),
        "violations": rows,
    }
    return results, rows, fields, bool(rows)


def _config_payload(config: argparse.Namespace) -> dict:
    param = config.param
    return {
        "command": config.command,
        "base_max": list(config.bounds.base_max) if config.bounds else None,
        "exp_max": list(config.bounds.exp_max) if config.bounds else None,
        "factors": config.factors,
        "cutoff": param.cutoff if param else None,
        "coeff_bound": param.coeff_bound if param else None,
        "budget": config.budget,
        "scales": list(config.scales) if config.scales else None,
        "shape": config.shape,
    }


def _render_csv(rows: list[dict], fields: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        normalized = {key: _normalize(value) for key, value in row.items()}
        writer.writerow(
            {key: "" if value is None else value for key, value in normalized.items()}
        )
    return buffer.getvalue()


def run(config: argparse.Namespace) -> int:
    """Execute one validated invocation and write its report."""
    start = time.perf_counter()
    try:
        results, rows, fields, violated = _execute(config)
    except (BudgetError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # exit 1 means a violation was found; running out of memory is a resource error
        print(
            f"error: out of memory in {config.command}; shrink the box or lower --budget",
            file=sys.stderr,
        )
        return 2
    except OverflowError:
        print(
            f"error: a value in {config.command} is past the float range; shrink the box",
            file=sys.stderr,
        )
        return 2
    if config.format == "json":
        payload = {
            "config": _normalize(_config_payload(config)),
            "results": _normalize(results),
            "metadata": {
                "elapsed_ms": round((time.perf_counter() - start) * 1000.0, 3),
                "version": __version__,
            },
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _render_csv(rows, fields)
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output_path}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 1 if violated else 0


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
