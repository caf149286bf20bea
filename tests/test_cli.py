"""Tests for the command-line interface."""

import json
import pathlib
import re

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestPlan:
    def test_solve_for_r(self, capsys):
        code = main(["plan", "--n", "10000000", "--k", "600", "--f", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "required sample size" in out

    def test_solve_for_f(self, capsys):
        code = main(["plan", "--n", "10000000", "--k", "200", "--r", "800000"])
        assert code == 0
        assert "max error fraction" in capsys.readouterr().out

    def test_solve_for_k(self, capsys):
        code = main(
            ["plan", "--n", "20000000", "--r", "1000000", "--f", "0.25"]
        )
        assert code == 0
        assert "buckets" in capsys.readouterr().out

    def test_wrong_arity_rejected(self, capsys):
        code = main(["plan", "--n", "1000", "--k", "10"])
        assert code == 2
        assert "exactly two" in capsys.readouterr().err

    def test_all_three_rejected(self, capsys):
        code = main(
            ["plan", "--n", "1000", "--k", "10", "--f", "0.2", "--r", "100"]
        )
        assert code == 2

    def test_f_whose_square_underflows_is_clean_error(self, capsys):
        code = main(["plan", "--n", "1000", "--k", "10", "--f", "1e-200"])
        assert code == 1
        err = capsys.readouterr().err
        assert "not a finite number" in err
        assert "Traceback" not in err

    def test_gamma_whose_inverse_overflows_is_clean_error(self, capsys):
        code = main(
            ["plan", "--n", "1000", "--k", "10", "--r", "5",
             "--gamma", "1e-320"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "not a finite number" in captured.err
        assert "Traceback" not in captured.err
        assert "inf" not in captured.out


class TestDemo:
    def test_demo_runs(self, capsys):
        code = main(["demo", "zipf2", "--n", "20000", "--k", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "zipf2" in out
        assert "true distinct" in out

    def test_demo_default_dataset(self, capsys):
        code = main(["demo", "--n", "10000", "--k", "10"])
        assert code == 0

    def test_demo_layout_option(self, capsys):
        code = main(
            ["demo", "zipf0", "--n", "10000", "--k", "10", "--layout", "sorted"]
        )
        assert code == 0


class TestAnalyze:
    def test_npy_file(self, tmp_path, capsys):
        path = tmp_path / "values.npy"
        np.save(path, np.arange(20_000))
        code = main(["analyze", str(path), "--k", "20", "--f", "0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "n=20,000" in out
        assert "converged" in out

    def test_csv_column_selection(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        rows = np.column_stack([np.arange(5000), np.arange(5000) * 2])
        np.savetxt(path, rows, delimiter=",")
        code = main(
            ["analyze", str(path), "--column", "1", "--k", "10", "--f", "0.3"]
        )
        assert code == 0
        assert "n=5,000" in capsys.readouterr().out

    def test_show_buckets(self, tmp_path, capsys):
        path = tmp_path / "values.npy"
        np.save(path, np.arange(10_000))
        code = main(
            ["analyze", str(path), "--k", "10", "--f", "0.3",
             "--show-buckets", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bucket   0" in out

    def test_missing_file_is_clean_error(self, capsys):
        code = main(["analyze", "/nonexistent/file.npy"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_column_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        np.savetxt(path, np.arange(100).reshape(-1, 1), delimiter=",")
        code = main(["analyze", str(path), "--column", "5"])
        assert code == 1
        assert "column 5" in capsys.readouterr().err

    def test_nan_in_csv_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("1\n2\nnan\n4\n")
        code = main(["analyze", str(path), "--k", "2"])
        assert code == 1
        assert "column 'value' holds NaN" in capsys.readouterr().err

    def test_fullscan_method(self, tmp_path, capsys):
        path = tmp_path / "values.npy"
        np.save(path, np.arange(5_000))
        code = main(
            ["analyze", str(path), "--method", "fullscan", "--k", "10"]
        )
        assert code == 0
        assert "method=fullscan" in capsys.readouterr().out


FIGURE_SMALL = [
    "figure", "5", "--n", "20000", "--k", "10",
    "--trials", "2", "--rates", "0.05,0.2",
]


class TestFigure:
    def test_figure_runs_and_prints_series(self, capsys):
        code = main(FIGURE_SMALL + ["--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "sampling_rate" in out
        assert "Z=2" in out

    def test_workers_do_not_change_the_numbers(self, capsys):
        """--workers 2 must reproduce --workers 1 bit-for-bit."""
        assert main(FIGURE_SMALL + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(FIGURE_SMALL + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_medium_scale_sweep_prints_the_golden_bytes(self, capsys, golden):
        """One pass of the end-to-end benchmark's figure sweep: figures 5, 6
        and 9 at its scale, trials and seed print exactly these bytes."""
        printed = []
        for figure in ("5", "6", "9"):
            assert main([
                "figure", figure, "--scale", "medium", "--trials", "9",
                "--workers", "1", "--seed", "0",
            ]) == 0
            printed.append(capsys.readouterr().out)
        golden("tests/experiments/golden/figure_sweep_medium.txt", "".join(printed))

    def test_chunk_size_does_not_change_the_numbers(self, capsys):
        assert main(FIGURE_SMALL + ["--workers", "2"]) == 0
        auto_out = capsys.readouterr().out
        assert main(FIGURE_SMALL + ["--workers", "2", "--chunk-size", "1"]) == 0
        chunked_out = capsys.readouterr().out
        assert chunked_out == auto_out

    def test_zero_workers_is_clean_error(self, capsys):
        code = main(FIGURE_SMALL + ["--workers", "0"])
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_negative_workers_is_clean_error(self, capsys):
        code = main(FIGURE_SMALL + ["--workers", "-2"])
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_negative_chunk_size_is_clean_error(self, capsys):
        code = main(FIGURE_SMALL + ["--chunk-size", "-1"])
        assert code == 2
        assert "--chunk-size must be >= 1" in capsys.readouterr().err

    def test_out_file_written(self, tmp_path, capsys):
        out_path = tmp_path / "fig5.txt"
        code = main(FIGURE_SMALL + ["--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert "Figure 5" in out_path.read_text()

    def test_distinct_value_figure(self, capsys):
        code = main(
            ["figure", "9", "--n", "20000", "--k", "10", "--trials", "2",
             "--rates", "0.05,0.2", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "numDVEst" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "99"])


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "mystery"])


ROOT = pathlib.Path(__file__).resolve().parents[1]
#: The docs a reader copies ``python -m repro ...`` invocations from.
DOCS = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]


class TestDocumentedInvocations:
    @pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
    def test_every_cited_subcommand_exists(self, doc, capsys):
        """A removed or renamed subcommand that a doc still shows fails
        here, naming the doc."""
        cited = set(
            re.findall(r"python -m repro ([a-z][a-z_-]*)", doc.read_text())
        )
        missing = []
        for subcommand in sorted(cited):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([subcommand, "--help"])
            if exc.value.code != 0:
                missing.append(subcommand)
        capsys.readouterr()
        assert not missing, f"{doc.name} cites unknown subcommands: {missing}"


class TestSaveAndEstimate:
    def test_roundtrip_through_files(self, tmp_path, capsys):
        values_path = tmp_path / "values.npy"
        np.save(values_path, np.arange(20_000))
        stats_path = tmp_path / "stats.json"
        assert (
            main(
                ["analyze", str(values_path), "--k", "20", "--f", "0.3",
                 "--save", str(stats_path)]
            )
            == 0
        )
        assert stats_path.exists()
        capsys.readouterr()

        code = main(
            ["estimate", str(stats_path), "--range", "0", "9999",
             "--distinct"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rows with 0 <= value <= 9999" in out
        assert "distinct values" in out

    def test_estimate_equals(self, tmp_path, capsys):
        values_path = tmp_path / "values.npy"
        np.save(values_path, np.repeat(np.arange(1000), 10))
        stats_path = tmp_path / "stats.json"
        main(["analyze", str(values_path), "--k", "10", "--f", "0.3",
              "--save", str(stats_path)])
        capsys.readouterr()
        assert main(["estimate", str(stats_path), "--equals", "500"]) == 0
        assert "value = 500" in capsys.readouterr().out

    def test_estimate_nan_range_is_clean_error(self, tmp_path, capsys):
        values_path = tmp_path / "values.npy"
        np.save(values_path, np.arange(5_000))
        stats_path = tmp_path / "stats.json"
        main(["analyze", str(values_path), "--k", "10", "--f", "0.3",
              "--save", str(stats_path)])
        capsys.readouterr()
        code = main(["estimate", str(stats_path), "--range", "nan", "50"])
        assert code == 1
        assert "need lo <= hi" in capsys.readouterr().err

    def test_estimate_without_query_hints(self, tmp_path, capsys):
        values_path = tmp_path / "values.npy"
        np.save(values_path, np.arange(5_000))
        stats_path = tmp_path / "stats.json"
        main(["analyze", str(values_path), "--k", "10", "--f", "0.3",
              "--save", str(stats_path)])
        capsys.readouterr()
        assert main(["estimate", str(stats_path)]) == 0
        assert "no query given" in capsys.readouterr().out

    def test_estimate_missing_file(self, capsys):
        assert main(["estimate", "/nonexistent/stats.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestChaos:
    CHAOS_ARGS = [
        "chaos", "--fault-rate", "0,0.1", "--n", "8000", "--k", "10",
        "--f", "0.25", "--trials", "2", "--blocking-factor", "25",
        "--seed", "7",
    ]

    def test_chaos_runs_and_reports(self, capsys):
        code = main(self.CHAOS_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "fault_rate" in out
        assert "2f_bound" in out

    def test_chaos_deterministic_across_workers(self, capsys):
        assert main(self.CHAOS_ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self.CHAOS_ARGS + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_chaos_writes_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "chaos.txt"
        code = main(self.CHAOS_ARGS + ["--out", str(out_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert out_path.read_text().strip() in captured.out
        assert "report written" in captured.err

    def test_chaos_rejects_bad_rate(self, capsys):
        code = main(["chaos", "--fault-rate", "0,1.5", "--n", "2000"])
        assert code == 2
        assert "fault rates must be in [0, 1)" in capsys.readouterr().err

    def test_chaos_rejects_bad_workers(self, capsys):
        code = main(["chaos", "--workers", "0", "--n", "2000"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_chaos_rejects_bad_trials(self, trials, capsys):
        code = main(["chaos", "--trials", trials, "--n", "2000"])
        assert code == 1
        assert f"trials must be positive, got {trials}" in (
            capsys.readouterr().err
        )

    def test_chaos_rate_list_parse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--fault-rate", "a,b"])


class TestMetricsWrapper:
    PLAN = ["plan", "--n", "100000", "--k", "50", "--f", "0.2"]

    def test_propagates_wrapped_exit_code(self, capsys):
        # plan with the wrong arity returns 2; the wrapper must not mask it.
        code = main(["metrics", "plan", "--n", "1000", "--k", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert "exactly two of" in captured.err

    def test_out_to_missing_dir_creates_it(self, tmp_path, capsys):
        # The dump goes through the atomic write helper, which creates
        # missing parent directories rather than erroring.
        missing = tmp_path / "no" / "such" / "dir" / "m.txt"
        code = main(["metrics", "--out", str(missing)] + self.PLAN)
        assert code == 0
        assert missing.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_empty_registry_text_dump(self, capsys):
        # plan is pure arithmetic: it emits no metrics, and the wrapper
        # still succeeds with an empty dump rather than erroring.
        code = main(["metrics"] + self.PLAN)
        assert code == 0
        assert capsys.readouterr().out.endswith("\n")

    def test_empty_registry_json_dump(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        code = main(
            ["metrics", "--format", "json", "--out", str(out)] + self.PLAN
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["metrics"] == []
        assert document["schema_version"] == 1


class TestBench:
    def test_bench_is_a_usage_error(self, capsys):
        # The logical costs are the golden benchmarks/baseline.json of
        # benchmarks/test_logical_costs.py; the wall gates are
        # benchmarks/wall_gates.py.
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "bench" in err


class TestLint:
    FIXTURES = str(
        __import__("pathlib").Path(__file__).parent / "lint" / "fixtures"
    )

    def test_clean_repo_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "lint OK" in capsys.readouterr().out

    def test_fixture_repo_exits_one(self, capsys):
        assert main(["lint", "--root", self.FIXTURES]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "finding(s)" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "OBS001", "EXC001", "FLT001", "DOC002"):
            assert rule_id in out

    def test_json_format_is_parseable(self, capsys):
        assert main(["lint", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "lint"
        assert doc["counts"]["total"] == 0

    def test_rules_subset_selection(self, capsys):
        code = main(
            ["lint", "--root", self.FIXTURES, "--rules", "DET001"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "DET002" not in out

    def test_unknown_rule_is_clean_error(self, capsys):
        assert main(["lint", "--rules", "NOPE123"]) == 1
        assert "unknown lint rule" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--baseline", "x.json"], ["--write-baseline", "x.json"]]
    )
    def test_baseline_flags_are_usage_errors(self, flags, capsys):
        # The repo is gated at zero findings; the one suppression is the
        # inline `# repro: noqa[RULE]` comment.
        with pytest.raises(SystemExit) as exc:
            main(["lint", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--flow"], ["--graph", "x.dot"]])
    def test_flow_flags_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_out_writes_report_file(self, tmp_path, capsys):
        out = tmp_path / "lint.json"
        code = main(["lint", "--format", "json", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["counts"]["total"] == 0
        assert "lint report written" in capsys.readouterr().err
