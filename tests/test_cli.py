"""Command-line interface: parsing, report schema, determinism, exit codes."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest

import logforms.cli as cli_module
from logforms import (
    Bounds,
    FilterParameter,
    FormTuple,
    count_e_set,
    default_cutoff,
    main_term,
)
from logforms.census import OrbitViolation
from logforms.cli import main, parse_args


# argv: CLI invocations, one per argument.  Runs each, then prints which
# numpy submodules and which layer modules the interpreter has loaded.
_START = """
import contextlib, io, sys
import logforms.cli
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        logforms.cli.main(argv.split())
print(sorted(name for name in sys.modules if name.startswith("numpy.")))
print(sorted(name for name in sys.modules if name.startswith("logforms.")))
"""

# Refused by a charge that needs only the box; each would sieve 5e7 bases first.
_BOX_REFUSALS = {
    "census -A 50000000 -B 1 --budget 10": "census would key 150000000 coordinate "
    "powers in at least 70512 words each",
    "verify-theorem -A 50000000,50000000 -B 3,3 --budget 10": "e-set filters walk "
    "2500000000000000 base tuples",
    # 2 * 50000000 * ceil(ln 50000001): the pair count's strided cells
    "e-set -A 50000000,50000000 -B 3,3 --budget 10": "condition-1 pair count would "
    "read 1800000000 base cells",
    "lemmas -A 50000000,50000000 -B 3,3 --budget 10": "condition-1 pair count would "
    "read 1800000000 base cells",
}


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParseArgs:
    def test_census_flags(self):
        config = parse_args(
            [
                "census",
                "-A",
                "50,60",
                "-B",
                "4,5",
                "--budget",
                "1000",
                "--C",
                "4",
                "--format",
                "csv",
                "--out",
                "report.csv",
            ]
        )
        assert config.command == "census"
        assert config.bounds == Bounds((50, 60), (4, 5))
        assert config.param.cutoff == 4.0
        assert config.budget == 1000
        assert config.format == "csv"
        assert config.output_path == "report.csv"
        assert config.factors == 2

    def test_converge_without_explicit_bounds(self):
        config = parse_args(["converge", "--scales", "3,5", "--shape", "equal", "-n", "2"])
        assert config.command == "converge"
        assert config.bounds is None
        assert config.scales == (3, 5)
        assert config.shape == "equal"
        assert config.factors == 2

    @pytest.mark.parametrize("text,budget", [("1e9", 10**9), ("2.5e3", 2500)])
    def test_budget_takes_integral_scientific_notation(self, text, budget):
        config = parse_args(["census", "-A", "10", "-B", "2", "--budget", text])
        assert config.budget == budget

    def test_factors_inferred_from_bounds(self):
        config = parse_args(["census", "-A", "5,6,7", "-B", "1,2,3"])
        assert config.factors == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemmas", "-A", "7,100", "-B", "9,9"],  # default cutoff below 2
            ["census", "-A", "2,2", "-B", "1"],  # mismatched list lengths
            ["census", "-n", "3", "-A", "2,2", "-B", "1,1"],  # census takes no -n
            ["census", "-A", "5"],  # -B missing
            ["census"],  # bounds missing entirely
            ["census", "-A", "5,x", "-B", "2,2"],  # non-integer entry
            ["census", "-A", "0,5", "-B", "2,2"],  # bound below 1
            ["census", "-A", "5", "-B", "2", "--C", "1.5"],  # cutoff too small
            ["census", "-A", "5", "-B", "2", "--budget", "0"],
            ["census", "-A", "5", "-B", "2", "--threads", "2"],  # flag removed
            ["converge", "-n", "2"],  # --scales missing
            ["converge", "--scales", "3,5", "--shape", "custom"],  # no base box
            ["no-such-command"],
            ["e-set", "-A", "50,60", "-B", "4,5", "--C", "inf"],  # cutoff not finite
            ["converge", "--scales", "0,3", "-n", "2"],  # scale below 1
            ["converge", "--scales", "3,5"],  # equal shape without -n
            ["converge", "--scales", "3,5", "--shape", "separated"],  # no -n
            ["converge", "--scales", "3,5", "-n", "0"],  # no coordinates
            ["converge", "--scales", "3,5", "-n", "-2"],
            ["asymptotic", "-A", "5,9", "-B", "2,3", "--C", "4"],  # reads no cutoff
            ["asymptotic", "-A", "5,9", "-B", "2,3", "--budget", "5"],  # charges nothing
            ["census", "-n", "2", "-A", "5,5", "-B", "2,2"],  # -n only repeats len(-A)
            ["converge", "--shape", "equal", "-n", "2", "-A", "5,5", "-B", "2,2", "--scales", "3"],
            ["converge", "--shape", "custom", "-n", "2", "-A", "5,5", "-B", "2,2", "--scales", "1"],
            ["census", "-A", "5", "-B", "2", "--budget", "1.5"],  # budget not an integer
            ["census", "-A", "5", "-B", "2", "--budget", "1e-3"],
            ["census", "-A", "5", "-B", "2", "--budget", "0e3"],  # budget below 1
            ["census", "-A", "5", "-B", "2", "--budget", "1e5000"],  # past int()'s digits
        ],
    )
    def test_usage_errors_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2


class TestReports:
    def test_census_schema(self, capsys):
        code, payload = _run_json(capsys, ["census", "-A", "10", "-B", "3"])
        assert code == 0
        assert set(payload) == {"config", "results", "metadata"}
        assert payload["config"]["command"] == "census"
        assert payload["results"]["exact_count"] == 47
        assert payload["results"]["tuple_space"] == 70
        assert set(payload["metadata"]) == {"elapsed_ms", "version"}

    def test_e_set_matches_library(self, capsys, table_small):
        code, payload = _run_json(capsys, ["e-set", "-A", "8", "-B", "3"])
        assert code == 0
        bounds = Bounds((8,), (3,))
        from logforms import default_cutoff

        count, density = count_e_set(bounds, default_cutoff(bounds), table_small)
        assert payload["results"]["count"] == count == 24
        assert payload["results"]["density"] == pytest.approx(density)

    def test_asymptotic_values(self, capsys):
        code, payload = _run_json(capsys, ["asymptotic", "-A", "2,8", "-B", "9,3"])
        assert code == 0
        results = payload["results"]
        assert results["main_term"] == pytest.approx(440.0)
        assert results["separated_term"] == pytest.approx(2 * 2 * 2 * 8 * 9 * 3)
        assert results["envelope_upper"] == pytest.approx(results["separated_term"])
        assert results["envelope_lower"] == pytest.approx(
            results["envelope_upper"] / 2
        )

    def test_asymptotic_config_has_no_cutoff_or_budget(self, capsys):
        code, payload = _run_json(capsys, ["asymptotic", "-A", "10,20", "-B", "2,3"])
        assert code == 0
        config = payload["config"]
        assert config["cutoff"] is None
        assert config["coeff_bound"] is None
        assert config["budget"] is None
        assert config["base_max"] == [10, 20] and config["factors"] == 2

    def test_asymptotic_builds_no_sieve(self, capsys):
        # 2e8 is past the sieve cap, and the main term factors nothing
        argv = ["asymptotic", "-A", "200000000,5", "-B", "3,3"]
        code, payload = _run_json(capsys, argv)
        assert code == 0
        assert payload["results"]["main_term"] == main_term(Bounds((200000000, 5), (3, 3)))

    def test_finished_census_is_reported(self, capsys):
        # the count fits the budget, the e-set filters (1.08e9 tuples) do not
        argv = ["census", "-A", ",".join(["8"] * 10), "-B", ",".join(["2"] * 10)]
        code, payload = _run_json(capsys, argv)
        assert code == 0
        assert payload["results"]["exact_count"] == 283_179
        assert payload["results"]["e_count"] is None
        assert payload["results"]["formula_value"] > 0
        # eleven coordinates are past the main term's cap
        box = ["-A", ",".join(["2"] * 11), "-B", ",".join(["1"] * 11)]
        for argv in (["census", *box], ["converge", "--scales", "1", "--shape", "custom", *box]):
            code, payload = _run_json(capsys, argv)
            assert code == 0
            report = payload["results"].get("reports", [payload["results"]])[0]
            assert report["exact_count"] == 23
            assert report["formula_value"] is None
            assert report["ratio"] is None

    def test_lemmas_reports_three_conditions(self, capsys):
        code, payload = _run_json(capsys, ["lemmas", "-A", "40,40", "-B", "4,4"])
        assert code == 0
        conditions = payload["results"]["conditions"]
        assert [row["condition"] for row in conditions] == [1, 2, 3]
        for row in conditions:
            assert row["ratio"] == pytest.approx(
                row["exact_count"] / row["bound_value"]
            )

    def test_config_and_results_are_reproducible(self, capsys):
        argv = ["census", "-A", "12,9", "-B", "2,3"]
        _, first = _run_json(capsys, argv)
        _, second = _run_json(capsys, argv)
        assert json.dumps(first["config"]) == json.dumps(second["config"])
        assert json.dumps(first["results"]) == json.dumps(second["results"])

    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["census", "-A", "10", "-B", "3", "--out", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["results"]["exact_count"] == 47

    def test_csv_and_json_agree(self, capsys):
        argv = ["converge", "--scales", "3,5", "--shape", "equal", "-n", "2"]
        code, payload = _run_json(capsys, argv)
        assert code == 0
        code = main(argv + ["--format", "csv"])
        assert code == 0
        text = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(text)))
        reports = payload["results"]["reports"]
        assert len(rows) == len(reports) == 2
        for row, report in zip(rows, reports):
            assert int(row["scale"]) == report["scale"]
            assert int(row["exact_count"]) == report["exact_count"]
            assert int(row["tuple_space"]) == report["tuple_space"]
            assert float(row["formula_value"]) == report["formula_value"]
            assert float(row["ratio"]) == report["ratio"]
            assert row["e_count"] == ""
            assert report["e_count"] is None

    def test_converge_csv_header_does_not_depend_on_the_reports(self, capsys):
        # a sweep whose first scale is past the budget prints the same header
        # as one that finishes
        headers = []
        for scales in ("3,5", "2000"):
            assert main(["converge", "--scales", scales, "-n", "2", "--format", "csv"]) == 0
            headers.append(capsys.readouterr().out.splitlines()[0])
        assert headers[0] == headers[1] == (
            "scale,base_max,exp_max,tuple_space,exact_count,formula_value,ratio,e_count"
        )

    def test_converge_honours_cutoff(self, capsys, table_small):
        sweep = ["converge", "--scales", "8,10", "-n", "2"]
        for flags, cutoff, e_counts in (
            ([], None, [2240, 5040]),  # each box at its own default cutoff
            (["--C", "3"], 3.0, [384, 1280]),
            (["--C", "5"], 5.0, [0, 0]),
        ):
            code, payload = _run_json(capsys, sweep + flags)
            assert code == 0
            assert payload["config"]["cutoff"] == cutoff
            reports = payload["results"]["reports"]
            assert [row["e_count"] for row in reports] == e_counts
            for scale, row in zip((8, 10), reports):
                bounds = Bounds((scale, scale), (scale, scale))
                param = default_cutoff(bounds) if cutoff is None else FilterParameter(cutoff)
                assert row["e_count"] == count_e_set(bounds, param, table_small)[0]
        # a custom sweep reports no cutoff of its base box either
        code, payload = _run_json(capsys, sweep[:3] + ["--shape", "custom", "-A", "8", "-B", "2"])
        assert code == 0
        assert payload["config"]["cutoff"] is None
        assert payload["config"]["coeff_bound"] is None

    def test_infinite_ratio_is_null(self, capsys):
        # B_1 = 1 makes the main term 0, so the ratio is infinite
        argv = ["census", "-A", "50,60", "-B", "1,5"]
        assert main(argv) == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["results"]["formula_value"] == 0
        assert payload["results"]["ratio"] is None
        assert main(argv + ["--format", "csv"]) == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["ratio"] == ""


class TestExitCodes:
    def test_verify_clean_box_returns_zero(self, capsys):
        code, payload = _run_json(capsys, ["verify-theorem", "-A", "20,20", "-B", "3,3"])
        assert code == 0
        assert payload["results"]["violation_count"] == 0

    def test_verify_violation_returns_one(self, capsys, monkeypatch):
        fake = OrbitViolation(
            Fraction(6),
            FormTuple((2, 3), (1, 1)),
            FormTuple((6, 1), (1, 1)),
        )
        monkeypatch.setattr(
            cli_module, "verify_unique_representation", lambda *a, **k: [fake]
        )
        code = main(["verify-theorem", "-A", "6,6", "-B", "1,1", "--C", "4"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 1
        assert payload["results"]["violation_count"] == 1
        row = payload["results"]["violations"][0]
        assert row["value"] == "6"
        assert row["first_bases"] == [2, 3]
        assert row["second_bases"] == [6, 1]

    def test_relation_key_overflow_returns_two(self, capsys):
        # three coordinates search their magnitude sets; one coordinate's e-set
        # count needs no search, but its uniqueness check expands the rows
        big = "1000000000000000"
        for argv in (f"e-set -A 10,10,10 -B {big},{big},{big} --C 20",
                     "verify-theorem -A 10 -B 50000000000000 --C 20"):
            code = main([*argv.split(), "--budget", big])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "overflow the int64 relation keys" in captured.err

    def test_relation_search_charge_refuses(self, capsys):
        # C(10, 6) = 210 searched magnitude sets times 2 * 73**3 half sums,
        # from 64 base tuples
        box = ["-A", ",".join(["2"] * 6), "-B", ",".join(["10"] * 6)]
        for command in ("e-set", "lemmas"):
            code = main([command, *box, "--C", "1e8"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "163387140 half sums" in captured.err
            assert "--budget" in captured.err

    def test_unwritable_out_returns_two(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        code = main(["census", "-A", "8", "-B", "2", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(path) in captured.err
        assert not path.exists()

    def test_budget_exhaustion_returns_two(self, capsys):
        code = main(["census", "-A", "100,100", "-B", "5,5", "--budget", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "budget" in captured.err.lower()

    def test_lemmas_pair_charge_refuses(self, capsys):
        # the pair count of condition 1 is charged sum_i A_i ceil(ln(A_i + 1))
        # = 2 * 1000 * 7 base cells before it loops, where A_1 + A_2 would be 2000
        argv = ["lemmas", "-A", "1000,1000", "-B", "5,5", "--budget"]
        code = main([*argv, "13999"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: condition-1 pair count would read 14000 base cells, "
            "over the budget of 13999; raise --budget\n"
        )
        assert main([*argv, "14000"]) == 0

    def test_census_power_charge_refuses(self, capsys):
        # 177-word keys: the coordinate powers alone would take about 2.85 GB
        code = main(["census", "-A", "10000,10000", "-B", "100,100"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--budget" in captured.err

    @pytest.mark.parametrize("argv", sorted(_BOX_REFUSALS))
    def test_box_refusal_skips_the_sieve(self, argv, capsys, sieves):
        code = main(argv.split())
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {_BOX_REFUSALS[argv]}, over the budget of 10; raise --budget\n"
        )
        assert sieves == []

    def test_truncated_converge_skips_the_sieve(self, capsys, sieves):
        argv = ["converge", "--shape", "custom", "-A", "50000000", "-B", "1",
                "--scales", "1", "--budget", "10"]
        code, payload = _run_json(capsys, argv)
        assert code == 0
        assert payload["results"]["truncated_at"] == 1
        assert payload["results"]["reports"] == []
        assert sieves == []

    def test_admitted_box_sieves_once(self, capsys, sieves):
        code = main(["verify-theorem", "-A", "20,30", "-B", "3,3"])
        capsys.readouterr()
        assert code == 0
        assert sieves == [30]

    def test_memory_error_returns_two(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.01 GiB")

        monkeypatch.setattr(cli_module, "verify_unique_representation", exhausted)
        code = main(["verify-theorem", "-A", "20,20", "-B", "3,3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "memory" in captured.err
        assert "verify-theorem" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--scales", "3", "-n", "2000"],  # the symmetric leading term
            ["converge", "--shape", "separated", "--scales", "1", "-n", "2000"],
            ["asymptotic", "-A", f"{10**400},5", "-B", "2,3"],  # the main term
        ],
        ids=["converge-equal", "converge-separated", "asymptotic"],
    )
    def test_float_overflow_returns_two(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: a value in {argv[0]} is past the float range; shrink the box\n"
        )


class TestStart:
    def test_asymptotic_and_refusals_never_load_numpy(self, fresh_python):
        runs = ["asymptotic -A 10,20 -B 2,3", *sorted(_BOX_REFUSALS)]
        code, out, err = fresh_python(_START, *runs)
        assert code == 0, err
        numpy_loaded, layers = out.splitlines()
        assert numpy_loaded == "[]"
        # every layer module still loads with the CLI; only numpy waits
        for name in ("asymptotics", "census", "cli", "conditions", "core", "smooth"):
            assert f"'logforms.{name}'" in layers

    def test_census_loads_numpy(self, fresh_python):
        code, out, err = fresh_python(_START, "census -A 10 -B 3")
        assert code == 0, err
        assert out.splitlines()[0] != "[]"
