"""CLI tests (argument parsing + command execution via main())."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(
            ["figure", "fig2", "--reps", "5", "--seed", "9"]
        )
        assert args.key == "fig2" and args.reps == 5 and args.seed == 9

    def test_figure_chunk_size_flag(self):
        args = build_parser().parse_args(
            ["figure", "fig2", "--workers", "4", "--chunk-size", "3"]
        )
        assert args.workers == 4 and args.chunk_size == 3
        # default rides along when the flag is omitted
        assert build_parser().parse_args(["figure", "fig2"]).chunk_size == 5
        assert build_parser().parse_args(["all-figures"]).chunk_size == 5

    def test_schedule_workflow_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--workflow", "bogus"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Penalty Values" in out
        assert "HDLTS" in out and "measured" in out

    def test_figure(self, capsys):
        assert main(["figure", "fig13", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "Molecular Dynamics" in out
        assert "best" in out

    def test_figure_validate_flag(self, capsys):
        assert main(["figure", "fig13", "--reps", "1", "--validate"]) == 0

    def test_figure_parallel_chunked(self, capsys):
        assert (
            main(
                [
                    "figure",
                    "fig13",
                    "--reps",
                    "2",
                    "--workers",
                    "2",
                    "--chunk-size",
                    "1",
                ]
            )
            == 0
        )
        assert "Molecular Dynamics" in capsys.readouterr().out

    def test_schedule_paper(self, capsys):
        assert main(["schedule", "--workflow", "paper"]) == 0
        out = capsys.readouterr().out
        assert "makespan=73.00" in out
        assert "P1 |" in out

    def test_schedule_with_trace(self, capsys):
        assert main(["schedule", "--workflow", "paper", "--trace"]) == 0
        assert "Penalty Values" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "workflow,size",
        [("fft", 4), ("montage", 20), ("molecular", 8), ("gaussian", 4), ("random", 30)],
    )
    def test_schedule_every_workflow(self, workflow, size, capsys):
        assert main(
            ["schedule", "--workflow", workflow, "--size", str(size)]
        ) == 0
        assert "makespan=" in capsys.readouterr().out

    def test_schedule_baseline(self, capsys):
        assert main(["schedule", "--scheduler", "HEFT"]) == 0
        assert "HEFT" in capsys.readouterr().out

    def test_generate(self, capsys):
        assert main(["generate", "--v", "50", "--ccr", "2"]) == 0
        out = capsys.readouterr().out
        assert "50 / " in out  # tasks/edges/CPUs line
        assert "realized CCR" in out and "serialism" in out

    def test_dynamic_noise_only(self, capsys):
        assert main(["dynamic", "--reps", "2", "--v", "20"]) == 0
        out = capsys.readouterr().out
        assert "online HDLTS" in out
        assert "static HDLTS" in out

    def test_dynamic_with_failure(self, capsys):
        assert (
            main(
                [
                    "dynamic",
                    "--reps",
                    "2",
                    "--v",
                    "20",
                    "--fail-proc",
                    "1",
                    "--fail-at",
                    "50",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "failure of CPU 1" in out
        assert "cannot survive" in out

    def test_dynamic_fail_at_without_proc_rejected(self, capsys):
        """``--fail-at`` alone used to run failure-free without a word."""
        assert main(["dynamic", "--reps", "1", "--fail-at", "5"]) == 2
        assert "--fail-proc" in capsys.readouterr().err


class TestExportAndDiagnose:
    def test_export_all_formats(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "paper_HDLTS.graph.json",
            "paper_HDLTS.schedule.json",
            "paper_HDLTS.dot",
        }
        assert "makespan 73.00" in capsys.readouterr().out

    def test_export_json_only(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path), "--format", "json"]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert all(n.endswith(".json") for n in names)
        assert len(names) == 2

    def test_export_round_trips(self, tmp_path):
        from repro.io import load_graph

        main(["export", "--out", str(tmp_path), "--format", "json"])
        graph = load_graph(tmp_path / "paper_HDLTS.graph.json")
        assert graph.n_tasks == 10

    def test_diagnose(self, capsys):
        assert main(["diagnose"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck chain" in out
        assert "makespan          73.00" in out

    def test_diagnose_baseline(self, capsys):
        assert main(["diagnose", "--scheduler", "HEFT"]) == 0
        assert "makespan          80.00" in capsys.readouterr().out


class TestRunResume:
    def test_run_creates_manifest_and_ledger(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "run", "fig13", "--reps", "2", "--seed", "0",
                    "--workers", "2", "--chunk-size", "1",
                    "--run-dir", str(run_dir),
                ]
            )
            == 0
        )
        # a run directory is a one-shard campaign
        assert (run_dir / "campaign.json").exists()
        assert (run_dir / "shards" / "shard-0000.colbin").exists()
        captured = capsys.readouterr()
        assert "Molecular Dynamics" in captured.out
        assert "chunk 10/10" in captured.err

    def test_run_refuses_existing_run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        args = [
            "run", "fig13", "--reps", "1", "--run-dir", str(run_dir),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        assert "resume" in capsys.readouterr().err

    def test_resume_replays_completed_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "run", "fig13", "--reps", "2", "--seed", "4",
                    "--run-dir", str(run_dir),
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert main(["resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first

    def _parent_format_run(self, tmp_path, capsys, compiled):
        """A partial run dir whose manifest context still carries the
        retired ``compiled`` field, as older versions wrote it, and
        whose shard store was torn mid-frame by a crash."""
        import json

        from repro.io.columnar import scan_frames

        run_dir = tmp_path / "run"
        args = [
            "run", "fig13", "--reps", "2", "--seed", "4", "--chunk-size", "1",
            "--run-dir", str(run_dir),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        manifest = run_dir / "campaign.json"
        doc = json.loads(manifest.read_text())
        doc["context"]["compiled"] = compiled
        manifest.write_text(json.dumps(doc))
        shard = run_dir / "shards" / "shard-0000.colbin"
        _header, frames, _end = scan_frames(shard)
        cut = frames[len(frames) // 2].payload_offset + 3
        shard.write_bytes(shard.read_bytes()[:cut])
        return run_dir, first

    def test_resume_parent_format_manifest(self, tmp_path, capsys):
        run_dir, first = self._parent_format_run(tmp_path, capsys, True)
        assert main(["resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_resume_refuses_compiled_false_manifest(self, tmp_path, capsys):
        run_dir, _ = self._parent_format_run(tmp_path, capsys, False)
        assert main(["resume", str(run_dir)]) == 2
        assert "'compiled'" in capsys.readouterr().err

    def test_resume_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope")]) == 2
        assert "manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["resume", "status", "top"])
    def test_retired_run_dir_format_fails_loudly(
        self, tmp_path, capsys, command
    ):
        import json

        run_dir = tmp_path / "old-run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text(
            json.dumps({"schema": "repro.run/1", "reps": 2})
        )
        (run_dir / "chunks.jsonl").write_text("")
        argv = [command, str(run_dir)] + (["--once"] if command == "top" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro.run/1" in err and "repro run" in err

    def test_figure_start_method_flag(self, capsys):
        assert (
            main(
                [
                    "figure", "fig13", "--reps", "2", "--workers", "2",
                    "--chunk-size", "1", "--start-method", "serial",
                ]
            )
            == 0
        )
        assert "Molecular Dynamics" in capsys.readouterr().out

    def test_run_matches_figure_output_table(self, tmp_path, capsys):
        assert main(["figure", "fig13", "--reps", "2", "--seed", "1"]) == 0
        table = capsys.readouterr().out
        assert (
            main(
                [
                    "run", "fig13", "--reps", "2", "--seed", "1",
                    "--workers", "2", "--chunk-size", "1",
                    "--start-method", "spawn",
                    "--run-dir", str(tmp_path / "run"),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == table


class TestErrorHandling:
    def test_unknown_scheduler_exits_2(self, capsys):
        assert main(["schedule", "--scheduler", "NOPE"]) == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_unknown_figure_exits_2(self, capsys):
        assert main(["figure", "fig99", "--reps", "1"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_bad_generator_value_exits_2(self, capsys):
        assert main(["generate", "--v", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestObservability:
    def test_profile_fig1_lowercase_scheduler(self, capsys):
        assert main(["profile", "--workflow", "fig1", "--scheduler", "hdlts"]) == 0
        out = capsys.readouterr().out
        assert "profile: fig1 workflow" in out
        assert "73.00" in out
        assert "hdlts phase breakdown:" in out
        assert "HDLTS/eft_vector" in out
        assert "HDLTS/commit" in out

    def test_profile_json_document(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        assert (
            main(
                [
                    "profile",
                    "--workflow",
                    "fig1",
                    "--scheduler",
                    "HDLTS",
                    "--repeat",
                    "3",
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        import json

        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.profile/1"
        assert doc["workflow"]["name"] == "fig1"
        assert doc["workflow"]["n_tasks"] == 10
        assert doc["repeat"] == 3
        (run,) = doc["runs"]
        assert run["scheduler"] == "HDLTS"
        assert run["makespan"] == 73.0
        assert run["runs_timed"] == 3
        assert run["counters"]["decisions"] == 30  # 10 decisions x 3 runs
        assert run["counters"]["eft_evaluations"] == 216
        assert run["counters"]["duplication_accepted"] == 6
        phase_names = {p["phase"] for p in run["phases"]}
        assert "HDLTS" in phase_names
        assert "HDLTS/eft_vector" in phase_names

    def test_profile_multiple_schedulers(self, capsys):
        assert (
            main(["profile", "--workflow", "fig1", "--scheduler", "HDLTS,HEFT"])
            == 0
        )
        out = capsys.readouterr().out
        assert "HDLTS" in out and "HEFT" in out
        assert "80.00" in out  # HEFT's canonical Fig. 1 makespan

    def test_schedule_events_one_per_decision(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "events.jsonl"
        assert (
            main(
                ["schedule", "--workflow", "paper", "--events", str(out_path)]
            )
            == 0
        )
        events = [
            json.loads(line) for line in out_path.read_text().splitlines()
        ]
        decisions = [e for e in events if e["event"] == "scheduler.decision"]
        assert len(decisions) == 10  # one per mapping decision
        assert [d["step"] for d in decisions] == list(range(1, 11))
        assert all("chosen_proc" in d and "eft" in d for d in decisions)
        runs = [e for e in events if e["event"] == "scheduler.run"]
        assert len(runs) == 1 and runs[0]["makespan"] == 73.0
        assert "events written to" in capsys.readouterr().err

    def test_schedule_metrics_flag(self, capsys):
        assert main(["schedule", "--workflow", "paper", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "observability metrics:" in out
        assert "HDLTS/decisions" in out
        assert "HDLTS/eft_evaluations" in out

    def test_figure_metrics_flag(self, capsys):
        assert main(["figure", "fig13", "--reps", "1", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "observability metrics:" in out
        assert "sweep/replications" in out

    def test_dynamic_events(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "dyn.jsonl"
        assert (
            main(
                [
                    "dynamic",
                    "--reps",
                    "1",
                    "--v",
                    "20",
                    "--events",
                    str(out_path),
                ]
            )
            == 0
        )
        events = [
            json.loads(line) for line in out_path.read_text().splitlines()
        ]
        kinds = {e["event"] for e in events}
        assert "stream.dispatch" in kinds
        assert "dynamic.dispatch" not in kinds
        # both arms run in the arena: the online job and the static plan
        finishes = [e for e in events if e["event"] == "stream.job_finish"]
        assert len(finishes) == 2
        assert "sim.task_finish" not in kinds

    def test_profile_leaves_obs_disabled(self):
        from repro import obs

        main(["profile", "--workflow", "fig1", "--scheduler", "HDLTS"])
        assert not obs.enabled()
        assert not obs.get_bus().active


def _partial_run_dir(tmp_path, chunks):
    """A fig13 run dir (reps=2, chunk 1) holding ``chunks`` in shard 0."""
    from repro.experiments import get_figure
    from repro.experiments.campaign import Campaign
    from repro.runtime.context import RunContext
    from repro.service.store import ColumnarStore

    definition = get_figure("fig13")
    campaign = Campaign.create(
        tmp_path / "run", [definition], reps=2, n_shards=1,
        context=RunContext(chunk_size=1),
    )
    with ColumnarStore(
        campaign.shard_path(0), campaign.groups(), mode="a"
    ) as store:
        for x_index, lo, hi in chunks:
            values = [{name: 1.0 for name in definition.schedulers}]
            store.append_chunk(
                "fig13", x_index, definition.x_values[x_index], lo, hi,
                values,
            )
    return campaign.path


class TestRunTelemetry:
    def _run(self, run_dir, *extra):
        return main(
            [
                "run", "fig13", "--reps", "2", "--chunk-size", "1",
                "--run-dir", str(run_dir), *extra,
            ]
        )

    def test_run_writes_heartbeats_by_default(self, tmp_path, capsys):
        import json

        run_dir = tmp_path / "run"
        assert self._run(run_dir) == 0
        beats = list((run_dir / "telemetry").glob("heartbeat-*.json"))
        assert beats
        doc = json.loads(beats[0].read_text())
        assert doc["role"] == "main" and doc["chunks_done"] == 10

    def test_run_trace_produces_chrome_trace(self, tmp_path, capsys):
        import json

        run_dir = tmp_path / "run"
        assert self._run(run_dir, "--trace") == 0
        trace = json.loads((run_dir / "telemetry" / "trace.json").read_text())
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        kinds = {
            e["cat"] for e in trace["traceEvents"] if e.get("ph") == "X"
        }
        assert kinds >= {
            "sweep.run", "sweep.chunk", "sweep.replication", "scheduler.run"
        }
        assert "spans merged into" in capsys.readouterr().err

    def test_run_trace_parallel_has_worker_lanes(self, tmp_path, capsys):
        import json

        run_dir = tmp_path / "run"
        assert (
            self._run(
                run_dir, "--trace", "--workers", "2",
                "--start-method", "spawn",
            )
            == 0
        )
        trace = json.loads((run_dir / "telemetry" / "trace.json").read_text())
        lanes = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
        ]
        assert sum(1 for n in lanes if n.startswith("worker ")) == 2
        assert sum(1 for n in lanes if n.startswith("main ")) == 1

    def test_run_metrics_writes_prometheus_textfile(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._run(run_dir, "--metrics") == 0
        prom = (run_dir / "telemetry" / "metrics.prom").read_text()
        assert "repro_sweep_replications_total 10" in prom
        assert "# TYPE repro_sweep_chunk_wall_seconds summary" in prom
        assert "observability metrics:" in capsys.readouterr().out

    def test_run_events_defaults_into_telemetry_dir(self, tmp_path, capsys):
        import json

        run_dir = tmp_path / "run"
        assert self._run(run_dir, "--events") == 0
        events_path = run_dir / "telemetry" / "events.jsonl"
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        chunk_events = [e for e in events if e["event"] == "sweep.chunk"]
        assert len(chunk_events) == 10  # no double emission per chunk
        assert all(e["recorded"] for e in chunk_events)

    def test_run_events_explicit_path(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        events_path = tmp_path / "ev.jsonl"
        assert self._run(run_dir, "--events", str(events_path)) == 0
        assert events_path.exists()

    def test_status_json_on_completed_run(self, tmp_path, capsys):
        import json

        run_dir = tmp_path / "run"
        assert self._run(run_dir) == 0
        capsys.readouterr()
        assert main(["status", str(run_dir), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["schema"] == "repro.status/2"
        assert status["complete"] is True
        assert status["tasks_done"] == status["tasks_total"] == 10

    def test_status_counts_interrupted_run(self, tmp_path, capsys):
        import json
        import time

        run_dir = _partial_run_dir(tmp_path, [(0, 0, 1), (0, 1, 2), (1, 0, 1)])
        # the collector's shard-0 heartbeat: 3 live chunks in 3 s
        now = time.time()
        beat = {
            "schema": "repro.heartbeat/1", "pid": 1, "role": "main",
            "shard": 0, "started": now - 3.0, "ts": now, "chunks_done": 3,
        }
        (run_dir / "telemetry").mkdir()
        (run_dir / "telemetry" / "heartbeat-1.json").write_text(
            json.dumps(beat)
        )
        assert main(["status", str(run_dir), "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is False
        assert status["tasks_done"] == 3
        assert status["tasks_total"] == 10
        assert status["eta_s"] > 0

    def test_top_once_on_completed_run(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert self._run(run_dir) == 0
        capsys.readouterr()
        assert main(["top", str(run_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "10/10" in out and "complete" in out

    def test_top_once_on_interrupted_run(self, tmp_path, capsys):
        run_dir = _partial_run_dir(tmp_path, [(0, 0, 1)])
        assert main(["top", str(run_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "1/10" in out and "running" in out

    def test_top_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope"), "--once"]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_resume_inherits_trace_from_manifest(self, tmp_path, capsys):
        import json

        run_dir = tmp_path / "run"
        assert self._run(run_dir, "--trace") == 0
        capsys.readouterr()
        assert main(["resume", str(run_dir)]) == 0
        # replayed runs re-trace from the parent process (all chunks
        # come from the ledger, so only parent spans appear)
        trace = json.loads((run_dir / "telemetry" / "trace.json").read_text())
        assert any(
            e.get("cat") == "sweep.run" for e in trace["traceEvents"]
        )

    def test_run_outputs_unchanged_by_telemetry(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        traced = tmp_path / "traced"
        assert self._run(plain) == 0
        out_plain = capsys.readouterr().out.replace(str(plain), "RUN")
        assert self._run(traced, "--trace") == 0
        out_traced = capsys.readouterr().out.replace(str(traced), "RUN")
        assert out_traced == out_plain

    def test_schedule_trace_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "schedule", "--workflow", "paper",
                    "--trace-json", str(out_path),
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        cats = {e["cat"] for e in events}
        assert "scheduler.run" in cats
        assert "phase" in cats  # the per-phase bridge was scoped on
        assert "schedule" in cats  # the Gantt overlay
        lanes = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "thread_name"
            and e["pid"] == 2
        ]
        assert lanes == ["P1", "P2", "P3"]
        assert "chrome://tracing" in capsys.readouterr().err
