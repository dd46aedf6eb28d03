"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "-n", "5"])
        assert args.command == "generate"
        assert args.licenses == 5

    def test_experiment_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "11"])


class TestDemo:
    def test_demo_prints_paper_numbers(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "3.1" in output
        assert "VALID" in output
        assert "[1, 2, 4]" in output


class TestGenerateAndValidate:
    def test_round_trip(self, tmp_path, capsys):
        pool_path = tmp_path / "pool.json"
        log_path = tmp_path / "log.jsonl"
        code = main(
            [
                "generate",
                "-n",
                "6",
                "--records",
                "80",
                "--seed",
                "3",
                "--pool-out",
                str(pool_path),
                "--log-out",
                str(log_path),
            ]
        )
        assert code == 0
        document = json.loads(pool_path.read_text())
        assert len(document["licenses"]) == 6
        assert len(log_path.read_text().splitlines()) == 80

        for engine in ("grouped", "tree", "scan", "expansion", "zeta"):
            code = main(
                ["validate", "--pool", str(pool_path), "--log", str(log_path),
                 "--engine", engine]
            )
            output = capsys.readouterr().out
            assert f"[{ 'grouped-tree' if engine == 'grouped' else engine }]" in output
            assert code in (0, 1)

    def test_engines_agree_on_exit_code(self, tmp_path, capsys):
        pool_path = tmp_path / "pool.json"
        log_path = tmp_path / "log.jsonl"
        main(
            ["generate", "-n", "5", "--records", "60", "--seed", "1",
             "--pool-out", str(pool_path), "--log-out", str(log_path)]
        )
        capsys.readouterr()
        codes = {
            engine: main(
                ["validate", "--pool", str(pool_path), "--log", str(log_path),
                 "--engine", engine]
            )
            for engine in ("grouped", "tree", "scan", "zeta")
        }
        capsys.readouterr()
        assert len(set(codes.values())) == 1


class TestHeadroomAndDiagnose:
    @pytest.fixture
    def artifacts(self, tmp_path):
        pool_path = tmp_path / "pool.json"
        log_path = tmp_path / "log.jsonl"
        main(
            ["generate", "-n", "6", "--records", "60", "--seed", "5",
             "--pool-out", str(pool_path), "--log-out", str(log_path)]
        )
        return str(pool_path), str(log_path)

    def test_headroom_prints_counts(self, artifacts, capsys):
        pool_path, log_path = artifacts
        capsys.readouterr()
        code = main(
            ["headroom", "--pool", pool_path, "--log", log_path, "--set", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "headroom for" in output
        assert "counts" in output

    def test_diagnose_valid_log(self, artifacts, capsys):
        pool_path, log_path = artifacts
        capsys.readouterr()
        code = main(["diagnose", "--pool", pool_path, "--log", log_path])
        output = capsys.readouterr().out
        if code == 0:
            assert "VALID" in output
        else:
            assert "minimal violated sets" in output
            assert "minimum counts to revoke" in output

    def test_diagnose_invalid_log(self, tmp_path, capsys):
        # Hand-build a violating scenario: 1 license of capacity small.
        import json

        from repro.licenses.rel import dumps_pool
        from repro.licenses.schema import ConstraintSchema, DimensionSpec
        from repro.licenses.license import LicenseFactory
        from repro.licenses.pool import LicensePool

        schema = ConstraintSchema([DimensionSpec.numeric("x")])
        factory = LicenseFactory(schema, "K", "play")
        pool = LicensePool([factory.redistribution("L", aggregate=100, x=(0, 10))])
        pool_path = tmp_path / "pool.json"
        pool_path.write_text(dumps_pool(pool, schema))
        log_path = tmp_path / "log.jsonl"
        log_path.write_text(json.dumps({"set": [1], "count": 150}) + "\n")
        code = main(["diagnose", "--pool", str(pool_path), "--log", str(log_path)])
        output = capsys.readouterr().out
        assert code == 1
        assert "minimum counts to revoke: 50" in output


class TestConformanceCommand:
    def test_all_builtin_checks_pass(self, capsys, tmp_path):
        code = main(["conformance", "--export-dir", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "example1: 9/9 checks passed" in output
        assert "figure2: 9/9 checks passed" in output
        assert (tmp_path / "example1.json").exists()
        assert (tmp_path / "figure2.json").exists()


class TestProfileCommand:
    def test_profile_prints_shape_and_explanation(self, tmp_path, capsys):
        pool_path = tmp_path / "pool.json"
        log_path = tmp_path / "log.jsonl"
        main(
            ["generate", "-n", "6", "--records", "80", "--seed", "4",
             "--pool-out", str(pool_path), "--log-out", str(log_path)]
        )
        capsys.readouterr()
        code = main(["profile", "--pool", str(pool_path), "--log", str(log_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "licenses: 6" in output
        assert "match-set sizes" in output
        assert "theoretical gain" in output


class TestSimulateCommand:
    def test_simulate_prints_policy_table(self, capsys):
        code = main(["simulate", "-n", "5", "--stream", "60", "--seed", "2"])
        assert code == 0
        output = capsys.readouterr().out
        for policy in ("random", "last-fit", "first-fit",
                       "greedy-max-remaining", "equation"):
            assert policy in output

    def test_equation_policy_serves_the_most(self, capsys):
        main(["simulate", "-n", "6", "--stream", "250", "--seed", "3"])
        output = capsys.readouterr().out
        served = {}
        for line in output.splitlines():
            parts = [part.strip() for part in line.split("|")]
            if len(parts) == 4 and parts[0] in (
                "random", "last-fit", "first-fit",
                "greedy-max-remaining", "equation",
            ):
                served[parts[0]] = int(parts[3])
        assert served["equation"] == max(served.values())


class TestExperimentCommand:
    @pytest.mark.parametrize("figure", ["6", "10"])
    def test_fast_figures(self, figure, capsys):
        code = main(
            ["experiment", figure, "--sweep", "2", "4",
             "--records-per-license", "10"]
        )
        assert code == 0
        assert f"Figure {figure}" in capsys.readouterr().out

    def test_figure7_prints_table_and_chart(self, capsys):
        code = main(
            ["experiment", "7", "--sweep", "2", "4",
             "--records-per-license", "10"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 7" in output
        assert "log scale" in output

    @pytest.mark.parametrize("figure", ["8", "9"])
    def test_timing_figures(self, figure, capsys):
        code = main(
            ["experiment", figure, "--sweep", "2", "4",
             "--records-per-license", "10"]
        )
        assert code == 0
        assert f"Figure {figure}" in capsys.readouterr().out


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestServeBenchObservability:
    def _run(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            ["serve-bench", "-n", "12", "--stream", "80", "--seed", "5",
             "--shards", "2",
             "--trace", str(trace_path),
             "--events-out", str(events_path),
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        return trace_path, events_path, metrics_path, capsys.readouterr().out

    def test_exports_all_three_artifacts(self, tmp_path, capsys):
        trace_path, events_path, metrics_path, output = self._run(
            tmp_path, capsys
        )
        assert "wrote" in output
        assert trace_path.exists()
        assert events_path.exists()
        assert metrics_path.exists()

    def test_trace_file_covers_the_pipeline(self, tmp_path, capsys):
        from repro.obs.export import load_trace_jsonl

        trace_path, _, _, _ = self._run(tmp_path, capsys)
        names = {record.name for record in load_trace_jsonl(str(trace_path))}
        assert names >= {
            "request", "match", "queue_wait", "admission",
            "drain", "shard_batch", "revalidate",
        }

    def test_metrics_file_parses_as_prometheus(self, tmp_path, capsys):
        from repro.obs.export import parse_prometheus

        _, _, metrics_path, _ = self._run(tmp_path, capsys)
        samples = parse_prometheus(metrics_path.read_text())
        assert "repro_requests_total" in samples
        assert "repro_latency_seconds" in samples

    def test_events_file_journals_every_verdict(self, tmp_path, capsys):
        from repro.obs.events import EventLog

        _, events_path, _, _ = self._run(tmp_path, capsys)
        kinds = [
            event["kind"] for event in EventLog.iter_file(str(events_path))
        ]
        assert sum(k in ("admission", "rejection") for k in kinds) == 80


class TestExecutorChoices:
    @pytest.mark.parametrize("command", ["serve-bench", "serve"])
    def test_removed_backend_is_an_argparse_error(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--executor", "thread"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err


class TestServeBenchKernel:
    def test_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-bench", "--kernel", "gpu"])

    @pytest.mark.parametrize("command", ["serve-bench", "serve"])
    def test_removed_kernel_flag_is_an_argparse_error(self, command, capsys):
        """The engine follows ``--kernel-cap``; the old ``--kernel``
        must fail loudly, not start a server or pass as an abbreviation
        of ``--kernel-cap``."""
        for value in ("dense", "3"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--kernel", value])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --kernel" in err

    def test_dense_run_reports_fast_path_metric(self, capsys):
        code = main(
            ["serve-bench", "-n", "12", "--stream", "60", "--seed", "5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "kernel_fast_path_hits" in output
        assert "kernel_fallback" not in output

    def test_dense_and_tree_verdicts_agree(self, capsys):
        tallies = []
        for engine in (["--kernel-cap", "0"], []):
            assert main(
                ["serve-bench", "-n", "12", "--stream", "90", "--seed", "7",
                 *engine]
            ) == 0
            output = capsys.readouterr().out
            tallies.append(
                next(
                    line.split("(")[1]
                    for line in output.splitlines()
                    if "accepted," in line
                )
            )
        assert tallies[0] == tallies[1]

    def test_kernel_cap_zero_is_the_tree_path(self, capsys):
        code = main(
            ["serve-bench", "-n", "12", "--stream", "40", "--seed", "5",
             "--kernel-cap", "0"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "kernel_fallback" not in output
        assert "kernel_fast_path_hits" not in output

    def test_kernel_cap_below_group_size_falls_back(self, capsys):
        # This pool has groups of one and of more licenses: a cap of 1
        # serves the singletons dense and the rest on the tree.
        code = main(
            ["serve-bench", "-n", "12", "--stream", "40", "--seed", "5",
             "--kernel-cap", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "kernel_fallback" in output
        assert "kernel_fast_path_hits" in output


class TestObsReportCommand:
    def test_requires_an_input(self, capsys):
        assert main(["obs-report"]) == 2
        assert "provide --trace" in capsys.readouterr().err

    def test_reports_trace_and_events(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        events_path = tmp_path / "events.jsonl"
        main(
            ["serve-bench", "-n", "12", "--stream", "60", "--seed", "5",
             "--trace", str(trace_path), "--events-out", str(events_path)]
        )
        capsys.readouterr()
        code = main(
            ["obs-report", "--trace", str(trace_path),
             "--events", str(events_path), "--top", "4", "--max-traces", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "span(s) across" in output
        assert "top 4 slowest spans" in output
        assert output.count("trace t") == 2
        assert "event(s)" in output
        assert "admission" in output

    def test_sample_rate_thins_the_trace(self, tmp_path, capsys):
        from repro.obs.export import load_trace_jsonl

        full_path = tmp_path / "full.jsonl"
        thin_path = tmp_path / "thin.jsonl"
        for path, rate in ((full_path, "1.0"), (thin_path, "0.25")):
            main(
                ["serve-bench", "-n", "12", "--stream", "60", "--seed", "5",
                 "--trace", str(path), "--sample-rate", rate]
            )
        capsys.readouterr()
        full = load_trace_jsonl(str(full_path))
        thin = load_trace_jsonl(str(thin_path))
        assert 0 < len(thin) < len(full)


class TestServeBenchMonitoring:
    def _run(self, tmp_path, capsys, extra=()):
        health_path = tmp_path / "health.json"
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            ["serve-bench", "-n", "12", "--stream", "80", "--seed", "5",
             "--shards", "2",
             "--slo", "availability:0.999",
             "--slo", "latency:0.95:0.05",
             "--health-out", str(health_path),
             "--events-out", str(events_path),
             "--metrics-out", str(metrics_path),
             *extra]
        )
        assert code == 0
        return health_path, events_path, metrics_path, capsys.readouterr().out

    def test_monitored_run_reports_and_snapshots(self, tmp_path, capsys):
        health_path, _, _, output = self._run(tmp_path, capsys)
        assert "slos:" in output
        assert "wrote health snapshot" in output
        snapshot = json.loads(health_path.read_text())
        assert snapshot["status"] in ("ok", "warn", "critical")
        assert {s["name"] for s in snapshot["slos"]} == {
            "availability", "latency",
        }
        assert snapshot["ticks"] >= 1

    def test_monitor_gauges_land_in_metrics_export(self, tmp_path, capsys):
        from repro.obs.export import parse_prometheus

        _, _, metrics_path, _ = self._run(tmp_path, capsys)
        samples = parse_prometheus(metrics_path.read_text())
        assert "repro_alert_state" in samples
        assert "repro_slo_compliance" in samples
        assert "repro_slo_burn_rate" in samples

    def test_health_out_alone_enables_monitoring(self, tmp_path, capsys):
        health_path = tmp_path / "health.json"
        code = main(
            ["serve-bench", "-n", "8", "--stream", "40", "--seed", "1",
             "--health-out", str(health_path)]
        )
        assert code == 0
        capsys.readouterr()
        assert json.loads(health_path.read_text())["ticks"] >= 1

    def test_monitored_compare_sweep_still_works(self, tmp_path, capsys):
        self._run(tmp_path, capsys, extra=("--compare",))

    def test_bad_slo_spec_is_rejected(self, tmp_path):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            main(
                ["serve-bench", "-n", "8", "--stream", "10",
                 "--slo", "durability:0.9"]
            )


class TestMonitorReport:
    def _artifacts(self, tmp_path, capsys):
        health_path = tmp_path / "health.json"
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        code = main(
            ["serve-bench", "-n", "12", "--stream", "80", "--seed", "5",
             "--slo", "availability:0.999",
             "--health-out", str(health_path),
             "--events-out", str(events_path),
             "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        capsys.readouterr()
        return health_path, events_path, metrics_path

    def test_no_inputs_exits_two(self, capsys):
        assert main(["monitor-report"]) == 2
        assert "provide --health" in capsys.readouterr().err

    def test_health_section(self, tmp_path, capsys):
        health_path, _, _ = self._artifacts(tmp_path, capsys)
        assert main(["monitor-report", "--health", str(health_path)]) == 0
        output = capsys.readouterr().out
        assert output.startswith("health:")
        assert "efficiency_ratio" in output
        assert "slo availability" in output
        assert "alert queue-saturation" in output

    def test_events_section(self, tmp_path, capsys):
        _, events_path, _ = self._artifacts(tmp_path, capsys)
        assert main(["monitor-report", "--events", str(events_path)]) == 0
        assert "alert timeline:" in capsys.readouterr().out

    def test_metrics_section(self, tmp_path, capsys):
        _, _, metrics_path = self._artifacts(tmp_path, capsys)
        assert main(["monitor-report", "--metrics", str(metrics_path)]) == 0
        output = capsys.readouterr().out
        assert "monitoring gauges:" in output
        assert "repro_alert_state" in output
        assert "queue-saturation" in output

    def test_all_sections_together(self, tmp_path, capsys):
        health_path, events_path, metrics_path = self._artifacts(
            tmp_path, capsys
        )
        code = main(
            ["monitor-report",
             "--health", str(health_path),
             "--events", str(events_path),
             "--metrics", str(metrics_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "health:" in output
        assert "alert timeline:" in output
        assert "monitoring gauges:" in output
