"""Command-line interface: parsing, output formats, exit codes."""

import csv
import io
import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from exactci import InvalidLevel, MethodResult, ObservedTable, ci_two_sided_frontier
from exactci.cli import (
    EXIT_COVERAGE,
    EXIT_SCALE,
    EXIT_VALIDATION,
    main,
    parse_alpha,
    parse_table,
    result_to_dict,
)


def result_from_dict(d: dict) -> MethodResult:
    return MethodResult(
        method=d["method"],
        table=ObservedTable(*d["table"]),
        alpha=Fraction(d["alpha"]),
        ci_ntau=(d["ci_ntau"][0], d["ci_ntau"][1]),
        tests=d["tests"],
    )


@pytest.fixture
def runner():
    return CliRunner()


class TestParsing:
    def test_alpha_decimal_is_exact(self):
        assert parse_alpha("0.05") == Fraction(1, 20)
        assert parse_alpha("0.1") == Fraction(1, 10)

    def test_alpha_fraction(self):
        assert parse_alpha("1/20") == Fraction(1, 20)

    def test_alpha_out_of_range(self):
        # the library's one alpha rule
        with pytest.raises(InvalidLevel):
            parse_alpha("1")
        with pytest.raises(InvalidLevel):
            parse_alpha("0")

    def test_table(self):
        assert parse_table("1, 1, 1, 13") == ObservedTable(1, 1, 1, 13)
        with pytest.raises(ValueError):
            parse_table("1,2,3")


class TestSerialization:
    def test_json_roundtrip(self):
        result = ci_two_sided_frontier(ObservedTable(1, 1, 1, 13), Fraction(1, 20))
        assert result_from_dict(json.loads(json.dumps(result_to_dict(result)))) == result


class TestCompute:
    def test_text_output(self, runner):
        res = runner.invoke(
            main, ["compute", "--table", "1,1,1,13", "--alpha", "0.05", "--method", "two-sided"]
        )
        assert res.exit_code == 0
        assert "ci_ntau: [-1, 14]" in res.output
        assert "tests:  103" in res.output

    def test_json_output(self, runner):
        res = runner.invoke(
            main,
            ["compute", "--table", "2,6,8,0", "--method", "brute-force", "--format", "json"],
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["ci_ntau"] == [-14, -5]
        assert payload["tests"] == 189
        assert payload["alpha"] == "1/20"
        assert payload["n"] == 16 and payload["m"] == 8

    def test_csv_output(self, runner):
        res = runner.invoke(
            main,
            ["compute", "--table", "1,1,1,13", "--method", "one-sided-lower", "--format", "csv"],
        )
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert len(rows) == 1
        assert rows[0]["ci_ntau_lo"] == "-1" and rows[0]["ci_ntau_hi"] == "14"

    def test_validation_exit_code(self, runner):
        res = runner.invoke(main, ["compute", "--table", "0,0,1,1", "--method", "bonferroni"])
        assert res.exit_code == EXIT_VALIDATION

    def test_scale_guard_exit_code(self, runner, monkeypatch):
        monkeypatch.setenv("EXACTCI_MAX_EXACT_N", "10")
        res = runner.invoke(main, ["compute", "--table", "4,4,4,4", "--method", "two-sided"])
        assert res.exit_code == EXIT_SCALE

    @pytest.mark.parametrize("method", ["bonferroni", "margin-inversion"])
    def test_scale_guard_exit_code_count_methods(self, runner, method):
        # the count methods run no randomization test but are guarded alike
        res = runner.invoke(main, ["compute", "--table", "500,500,500,500", "--method", method])
        assert res.exit_code == EXIT_SCALE
        assert "n=2000 > limit 300" in res.stderr
        assert res.stdout == ""

    def test_invalid_scale_guard_env(self, runner, monkeypatch):
        monkeypatch.setenv("EXACTCI_MAX_EXACT_N", "abc")
        res = runner.invoke(main, ["compute", "--table", "1,1,1,5", "--method", "two-sided"])
        assert res.exit_code == EXIT_VALIDATION
        assert "EXACTCI_MAX_EXACT_N" in res.stderr

    def test_guards_hold_for_cached_scans(self, runner, monkeypatch):
        # the scans of (4,4,4,4) are cached by the first call; the limit
        # and its validation still apply to every later call
        args = ["compute", "--table", "4,4,4,4", "--method", "two-sided"]
        assert runner.invoke(main, args).exit_code == 0
        monkeypatch.setenv("EXACTCI_MAX_EXACT_N", "10")
        assert runner.invoke(main, args).exit_code == EXIT_SCALE
        monkeypatch.setenv("EXACTCI_MAX_EXACT_N", "abc")
        assert runner.invoke(main, args).exit_code == EXIT_VALIDATION

    def test_wang_flag(self, runner):
        # the flag did nothing and is gone; old scripts get a usage error
        res = runner.invoke(
            main,
            ["compute", "--table", "8,4,5,7", "--method", "bonferroni", "--wang", "--format", "json"],
        )
        assert res.exit_code == 2
        assert "--wang" in res.stderr

    def test_scale_option_removed(self, runner):
        # text output always prints both scales; old scripts get a usage error
        args = ["compute", "--table", "1,1,1,5", "--method", "two-sided"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert "ci_tau:" in res.output and "ci_ntau:" in res.output
        res = runner.invoke(main, [*args, "--scale", "ntau"])
        assert res.exit_code == 2
        assert "--scale" in res.stderr

    def test_shrunk_count_intervals_without_wang(self, runner):
        res = runner.invoke(
            main,
            ["compute", "--table", "8,4,5,7", "--method", "bonferroni", "--format", "json"],
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["ci_ntau"] == [-4, 14]


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "--table", "1,1,1,13", "--method", "two-sided"],
        ["enumerate", "--table", "1,1,1,13"],
        ["coverage", "--n", "6", "--m", "3"],
    ],
)
def test_alpha_with_zero_denominator(runner, args):
    res = runner.invoke(main, [*args, "--alpha", "1/0"])
    assert res.exit_code == EXIT_VALIDATION
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""


class TestBatch:
    HEADER = "n11,n10,n01,n00,alpha,method\n"

    def test_rows_in_order(self, runner, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            self.HEADER
            + "1,1,1,13,0.05,two-sided\n"
            + "2,6,8,0,0.05,brute-force\n"
        )
        res = runner.invoke(main, ["batch", str(path)])
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert [r["method"] for r in rows] == ["two_sided_frontier", "brute_force"]
        assert rows[0]["ci_ntau_lo"] == "-1"
        assert rows[1]["ci_ntau_lo"] == "-14"

    def test_empty_body(self, runner, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(self.HEADER)
        res = runner.invoke(main, ["batch", str(path)])
        assert res.exit_code == 0
        assert list(csv.DictReader(io.StringIO(res.output))) == []

    def test_bad_row_reported_with_number(self, runner, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            self.HEADER
            + "1,1,1,13,0.05,two-sided\n"
            + "0,0,0,0,0.05,two-sided\n"
        )
        res = runner.invoke(main, ["batch", str(path)])
        assert res.exit_code == EXIT_VALIDATION
        assert "row 3" in res.stderr
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert len(rows) == 1  # good row still emitted

    @pytest.mark.parametrize(
        "bad_row",
        [
            "8,4,5,7,1/0,two-sided",
            "8,4,5,7,abc,two-sided",
            "8,4,5,7,0,two-sided",
            "8,4,5,7",
            "8,4,5,7,0.05",
            "8,4,5,7,0.05,",
            "8,4,5,7,0.05,sideways",
        ],
    )
    def test_malformed_row_is_a_row_error(self, runner, tmp_path, bad_row):
        # the bad row, between two good ones, fails alone and as compute
        # fails: exit 2, no traceback
        path = tmp_path / "in.csv"
        path.write_text(
            self.HEADER
            + "1,1,1,13,0.05,two-sided\n"
            + bad_row + "\n"
            + "2,6,8,0,0.05,brute-force\n"
        )
        res = runner.invoke(main, ["batch", str(path)])
        assert res.exit_code == EXIT_VALIDATION
        assert isinstance(res.exception, SystemExit)
        assert "row 3:" in res.stderr
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert [(r["ci_ntau_lo"], r["ci_ntau_hi"]) for r in rows] == [("-1", "14"), ("-14", "-5")]

    def test_row_over_size_guard_is_a_row_error(self, runner, tmp_path, monkeypatch):
        # compute exits 3 on it; in a batch it fails its row alone, exit 2
        monkeypatch.setenv("EXACTCI_MAX_EXACT_N", "10")
        path = tmp_path / "in.csv"
        path.write_text(self.HEADER + "4,4,4,4,0.05,two-sided\n" + "1,1,1,5,0.05,two-sided\n")
        res = runner.invoke(main, ["batch", str(path)])
        assert res.exit_code == EXIT_VALIDATION
        assert "row 2:" in res.stderr and "n=16 > limit 10" in res.stderr
        assert len(list(csv.DictReader(io.StringIO(res.stdout)))) == 1

    def test_missing_header(self, runner, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("a,b\n1,2\n")
        res = runner.invoke(main, ["batch", str(path)])
        assert res.exit_code == EXIT_VALIDATION

    def test_json_format_and_output_file(self, runner, tmp_path):
        path = tmp_path / "in.csv"
        out = tmp_path / "out.json"
        path.write_text(self.HEADER + "1,1,1,13,0.05,bonferroni\n")
        res = runner.invoke(main, ["batch", str(path), "--format", "json", "--output", str(out)])
        assert res.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["ci_ntau"] == [-2, 14]


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, runner, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            TestBatch.HEADER
            + "".join(
                f"8,4,5,7,0.05,{name}\n"
                for name in ("bonferroni", "margin-inversion", "two-sided", "one-sided-upper")
            )
        )
        for args in (
            ["batch", str(path)],
            ["batch", str(path), "--format", "json"],
            ["compute", "--table", "1,1,1,13", "--method", "two-sided", "--format", "json"],
        ):
            first, second = runner.invoke(main, args), runner.invoke(main, args)
            assert first.exit_code == 0, args
            assert first.stdout_bytes == second.stdout_bytes, args


class TestEnumerate:
    def test_counts_and_membership(self, runner):
        res = runner.invoke(main, ["enumerate", "--table", "1,0,0,1"])
        assert res.exit_code == 0
        assert "4 compatible tables" in res.output
        assert "1  0  0  1" in res.output

    def test_with_pvalues(self, runner):
        res = runner.invoke(
            main, ["enumerate", "--table", "1,0,0,1", "--alpha", "0.05", "--format", "csv"]
        )
        assert res.exit_code == 0
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert len(rows) == 4
        assert all(Fraction(r["p_two_sided"]) > 0 for r in rows)

    def test_alpha_decides_accepted_column(self, runner):
        # the accepted column is p_two_sided >= alpha, so the level matters
        by_alpha = {}
        for alpha in ("0.05", "0.5"):
            res = runner.invoke(
                main, ["enumerate", "--table", "1,1,1,5", "--alpha", alpha, "--format", "csv"]
            )
            assert res.exit_code == 0
            rows = list(csv.DictReader(io.StringIO(res.output)))
            assert rows and all(
                r["accepted"] == ("yes" if Fraction(r["p_two_sided"]) >= Fraction(alpha) else "no") for r in rows
            )
            by_alpha[alpha] = [r["accepted"] for r in rows]
            text = runner.invoke(main, ["enumerate", "--table", "1,1,1,5", "--alpha", alpha])
            assert text.exit_code == 0
            lines = text.output.splitlines()
            assert lines[0].split()[-2:] == ["p_two_sided", "accepted"]
            assert [line.split()[-1] for line in lines[1:-1]] == by_alpha[alpha]
        assert by_alpha["0.05"] != by_alpha["0.5"]
        assert "no" in by_alpha["0.5"] and "yes" in by_alpha["0.05"]

    def test_degenerate_table(self, runner):
        res = runner.invoke(main, ["enumerate", "--table", "0,0,0,2"])
        assert res.exit_code == EXIT_VALIDATION

    def test_scale_guard_exit_code(self, runner, monkeypatch):
        # the p-values are computed under the same guard as compute's
        monkeypatch.setenv("EXACTCI_MAX_EXACT_N", "5")
        res = runner.invoke(main, ["enumerate", "--table", "2,2,2,2", "--alpha", "0.05"])
        assert res.exit_code == EXIT_SCALE
        assert "limit 5" in res.stderr
        assert res.stdout == ""

    def test_invalid_scale_guard_env(self, runner, monkeypatch):
        monkeypatch.setenv("EXACTCI_MAX_EXACT_N", "abc")
        res = runner.invoke(main, ["enumerate", "--table", "2,2,2,2", "--alpha", "0.05"])
        assert res.exit_code == EXIT_VALIDATION
        assert "EXACTCI_MAX_EXACT_N" in res.stderr

    @pytest.mark.parametrize("option", [["--mode", "mc"], ["--reps", "10"], ["--seed", "1"]])
    def test_monte_carlo_options_removed(self, runner, tmp_path, option):
        # every p-value is exact; old Monte Carlo scripts get a usage error
        res = runner.invoke(
            main, ["compute", "--table", "1,1,1,5", "--method", "two-sided", *option]
        )
        assert res.exit_code == 2
        assert option[0] in res.stderr

        path = tmp_path / "in.csv"
        path.write_text("n11,n10,n01,n00,alpha,method\n1,1,1,5,0.05,two-sided\n")
        res = runner.invoke(main, ["batch", str(path), *option])
        assert res.exit_code == 2
        assert option[0] in res.stderr

    def test_bench_removed(self, runner):
        res = runner.invoke(main, ["bench", "--table", "1,1,1,13", "--method", "two-sided"])
        assert res.exit_code == 2
        assert "bench" in res.stderr

    def test_csv_header_has_no_mode(self, runner):
        res = runner.invoke(
            main,
            ["compute", "--table", "8,4,5,7", "--alpha", "0.05", "--method", "bonferroni", "--format", "csv"],
        )
        assert res.exit_code == 0
        header = res.output.splitlines()[0].split(",")
        assert len(header) == 11
        assert "mode" not in header


class TestCoverage:
    def test_guaranteed_method_passes(self, runner):
        res = runner.invoke(
            main, ["coverage", "--n", "6", "--m", "3", "--alpha", "0.05", "--method", "two-sided"]
        )
        assert res.exit_code == 0
        assert "all tables covered at >= 19/20" in res.output

    def test_tiny_design_smoke(self, runner):
        res = runner.invoke(
            main, ["coverage", "--n", "2", "--m", "1", "--alpha", "0.05", "--method", "brute-force"]
        )
        assert res.exit_code == 0
