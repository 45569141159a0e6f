"""Command-line front end for the census, filter, and formula experiments.

Subcommands
-----------
census          exact count of distinct power products in one box vs the main term
e-set           size and density of the filtered representative set
lemmas          exact per-condition counts against their theoretical envelopes
asymptotic      main term and leading-term brackets for one box
verify-theorem  uniqueness-of-representation check on the filtered set
converge        census sweep along a scale sequence (equal/separated/custom shapes)

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
from dataclasses import dataclass

from . import __version__
from .core import DEFAULT_BUDGET, Bounds, BudgetError, ConfigError, FactorTable
from .conditions import FilterParameter, count_e_set, default_cutoff
from .smooth import check_condition
from .asymptotics import leading_term_envelope, main_term, separated_leading_term
from .census import convergence_run, run_census, verify_unique_representation

__all__ = ["RunConfig", "parse_args", "run", "main"]

_CUTOFF_COMMANDS = {"e-set", "lemmas", "verify-theorem"}


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus every knob it may read."""

    command: str
    bounds: Bounds | None
    param: FilterParameter | None
    budget: int
    output_path: str | None
    format: str
    scales: tuple[int, ...] | None
    shape: str | None
    factors: int | None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-A", dest="bases", metavar="LIST",
                        help="comma-separated base bounds, e.g. 50,60")
    common.add_argument("-B", dest="exps", metavar="LIST",
                        help="comma-separated exponent bounds, e.g. 4,5")
    common.add_argument("-n", dest="factors", type=int, metavar="N",
                        help="number of factors (cross-checked against -A/-B)")
    common.add_argument("--C", dest="cutoff", type=float, metavar="CUTOFF",
                        help="filter cutoff override (>= 2); default is min(B_i, ln A_i)")
    common.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
                        help="work budget (default 1e8), charged before each stage: "
                             "census candidate values, filtered base plus exponent "
                             "tuples, e-set key words, lemma base and exponent tuples")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", dest="output_path", metavar="PATH",
                        help="write the report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="logforms",
        description="Exact census and asymptotic checks for distinct rationals "
                    "built from bounded integer powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("census", parents=[common],
                   help="count distinct products in one box")
    sub.add_parser("e-set", parents=[common],
                   help="count the filtered representative set")
    sub.add_parser("lemmas", parents=[common],
                   help="exact condition counts vs their envelopes")
    sub.add_parser("asymptotic", parents=[common],
                   help="main term and leading-term brackets")
    sub.add_parser("verify-theorem", parents=[common],
                   help="uniqueness-of-representation check")
    converge = sub.add_parser("converge", parents=[common],
                              help="census sweep along a scale sequence")
    converge.add_argument("--scales", metavar="LIST",
                          help="comma-separated scale values, e.g. 10,20,40")
    converge.add_argument("--shape", choices=("equal", "separated", "custom"),
                          default="equal")
    return parser


def _int_list(text: str, flag: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error(f"{flag} expects a comma-separated integer list, got {text!r}")
    if not values:
        parser.error(f"{flag} must list at least one value")
    return values


def parse_args(argv: list[str] | None = None) -> RunConfig:
    """Parse and validate; exits with status 2 on any usage problem."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    bounds = None
    if ns.bases is not None or ns.exps is not None:
        if ns.bases is None or ns.exps is None:
            parser.error("-A and -B must be given together")
        base_max = _int_list(ns.bases, "-A", parser)
        exp_max = _int_list(ns.exps, "-B", parser)
        if len(base_max) != len(exp_max):
            parser.error(f"-A lists {len(base_max)} bounds but -B lists {len(exp_max)}")
        if ns.factors is not None and ns.factors != len(base_max):
            parser.error(f"-n {ns.factors} disagrees with the {len(base_max)} bounds given")
        try:
            bounds = Bounds(base_max, exp_max)
        except ValueError as exc:
            parser.error(str(exc))

    if ns.budget < 1:
        parser.error("--budget must be >= 1")

    scales = None
    shape = None
    if ns.command == "converge":
        if ns.scales is None:
            parser.error("converge requires --scales")
        scales = _int_list(ns.scales, "--scales", parser)
        if any(s < 1 for s in scales):
            parser.error("--scales values must be >= 1")
        shape = ns.shape
        if shape == "custom" and bounds is None:
            parser.error("converge --shape custom requires -A and -B base bounds")
        if shape in ("equal", "separated") and ns.factors is None and bounds is None:
            parser.error(f"converge --shape {shape} requires -n")
    elif bounds is None:
        parser.error(f"{ns.command} requires -A and -B")

    # --C, else the default rule; commands built around the filter need one, and
    # converge, whose boxes each have their own default, takes only --C
    param = None
    try:
        if ns.cutoff is not None:
            param = FilterParameter.from_cutoff(ns.cutoff)
        elif bounds is not None and ns.command != "converge":
            param = default_cutoff(bounds)
    except ConfigError as exc:
        if ns.cutoff is not None or ns.command in _CUTOFF_COMMANDS:
            parser.error(str(exc))

    factors = ns.factors
    if factors is None and bounds is not None:
        factors = bounds.n

    return RunConfig(
        command=ns.command,
        bounds=bounds,
        param=param,
        budget=ns.budget,
        output_path=ns.output_path,
        format=ns.format,
        scales=scales,
        shape=shape,
        factors=factors,
    )


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
    row.update(
        base_max=list(report.bounds.base_max),
        exp_max=list(report.bounds.exp_max),
        tuple_space=report.tuple_space,
        exact_count=report.exact_count,
        formula_value=report.formula_value,
        ratio=report.ratio,
        e_count=report.e_count,
    )
    return row


def _execute(config: RunConfig):
    """Returns (results, csv_rows, csv_fields, violation_found)."""
    bounds, param = config.bounds, config.param

    if config.command == "asymptotic":  # needs no factor table
        lower, upper = leading_term_envelope(bounds)
        results = {
            "main_term": main_term(bounds),
            "envelope_lower": lower,
            "envelope_upper": upper,
            "separated_term": separated_leading_term(bounds),
        }
        return results, [results], list(results), False

    # the sieve runs on the table's first use, after the stage's box-only charge
    table = FactorTable(max(bounds.base_max)) if bounds is not None else None
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
        rows = []
        for condition in (1, 2, 3):
            report = check_condition(condition, bounds, param, table, budget=config.budget)
            rows.append(
                {
                    "condition": report.condition,
                    "exact_count": report.exact_count,
                    "bound_value": report.bound_value,
                    "ratio": report.ratio,
                }
            )
        results = {
            "cutoff": param.cutoff,
            "coeff_bound": param.coeff_bound,
            "conditions": rows,
        }
        return results, rows, list(rows[0]), False

    if config.command == "verify-theorem":
        violations = verify_unique_representation(
            bounds, table, param=param, budget=config.budget
        )
        e_count = count_e_set(bounds, param, table, budget=config.budget)[0]
        rows = [
            {
                "value": str(v.value.value()),
                "first_bases": list(v.first.bases),
                "first_exps": list(v.first.exps),
                "second_bases": list(v.second.bases),
                "second_exps": list(v.second.exps),
            }
            for v in violations
        ]
        results = {
            "checked_e_count": e_count,
            "violation_count": len(rows),
            "violations": rows,
        }
        fields = ["value", "first_bases", "first_exps", "second_bases", "second_exps"]
        return results, rows, fields, bool(rows)

    if config.command == "converge":
        outcome = convergence_run(
            config.scales,
            config.shape,
            factors=config.factors,
            base=bounds,
            table=table,
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
        fields = list(rows[0]) if rows else ["scale"]
        return results, rows, fields, False

    raise ConfigError(f"unknown command {config.command!r}")


def _config_payload(config: RunConfig) -> dict:
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


def run(config: RunConfig) -> int:
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
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if violated else 0


def main(argv: list[str] | None = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
