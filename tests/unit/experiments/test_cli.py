"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.trace import read_trace_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--out", "x.csv"])
        assert args.land == "dance"
        assert args.tau == 10.0
        assert args.monitor == "crawler"

    def test_unknown_land_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--land", "atlantis", "--out", "x.csv"])

    def test_analyze_repeatable_range(self):
        args = build_parser().parse_args(["analyze", "t.csv", "--range", "10", "--range", "80"])
        assert args.range == [10.0, 80.0]

    def test_analyze_shards_flag(self):
        args = build_parser().parse_args(["analyze", "t.rtrc", "--shards", "4"])
        assert args.shards == 4
        assert build_parser().parse_args(["analyze", "t.rtrc"]).shards == 1

    def test_analyze_help_documents_shards(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--help"])
        help_text = capsys.readouterr().out
        assert "--shards" in help_text
        assert "fan contact/session/zone/graph extraction" in help_text
        assert "--backend" in help_text

    def test_convert_positionals(self):
        args = build_parser().parse_args(["convert", "in.csv.gz", "out.rtrc"])
        assert args.input == "in.csv.gz"
        assert args.output == "out.rtrc"

    def test_convert_help_names_formats(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["convert", "--help"])
        help_text = capsys.readouterr().out
        assert "rtrc" in help_text

    def test_simulate_help_mentions_rtrc(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--help"])
        assert ".rtrc" in capsys.readouterr().out


class TestSimulateAnalyzeRoundTrip:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli") / "mini.csv.gz"
        code = main([
            "simulate",
            "--land", "dance",
            "--hours", "0.1",
            "--spinup", "600",
            "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        return out

    def test_simulate_writes_loadable_trace(self, trace_path):
        trace = read_trace_csv(trace_path)
        assert len(trace) == 36
        assert trace.metadata.land_name == "Dance Island"

    def test_analyze_runs(self, trace_path, capsys):
        code = main(["analyze", str(trace_path), "--range", "10", "--every", "6"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Dance Island" in output
        assert "temporal metrics" in output
        assert "trip metrics" in output

    def test_validate_clean(self, trace_path, capsys):
        code = main(["validate", str(trace_path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_jsonl_output(self, tmp_path):
        out = tmp_path / "mini.jsonl"
        code = main([
            "simulate", "--land", "apfel", "--hours", "0.05",
            "--spinup", "300", "--out", str(out),
        ])
        assert code == 0
        from repro.trace import read_trace_jsonl

        assert read_trace_jsonl(out).metadata.land_name == "Apfel Land"

    def test_sensor_monitor_option(self, tmp_path):
        out = tmp_path / "sensed.csv"
        code = main([
            "simulate", "--land", "dance", "--hours", "0.05",
            "--spinup", "300", "--monitor", "sensors", "--out", str(out),
        ])
        assert code == 0
        assert read_trace_csv(out).metadata.source == "sensor-network"

    def test_rtrc_output(self, tmp_path):
        out = tmp_path / "mini.rtrc"
        code = main([
            "simulate", "--land", "dance", "--hours", "0.05",
            "--spinup", "300", "--out", str(out),
        ])
        assert code == 0
        from repro.trace import read_trace_rtrc

        assert read_trace_rtrc(out).metadata.land_name == "Dance Island"


class TestConvertAndShards:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("convert") / "mini.csv"
        assert main([
            "simulate", "--land", "dance", "--hours", "0.1",
            "--spinup", "600", "--seed", "3", "--out", str(out),
        ]) == 0
        return out

    def test_convert_csv_to_rtrc_preserves_columns(self, trace_path, tmp_path, capsys):
        out = tmp_path / "mini.rtrc"
        assert main(["convert", str(trace_path), str(out)]) == 0
        import numpy as np

        from repro.trace import read_trace_rtrc

        original = read_trace_csv(trace_path)
        converted = read_trace_rtrc(out)
        assert np.array_equal(original.columns.times, converted.columns.times)
        assert np.array_equal(original.columns.user_ids, converted.columns.user_ids)
        assert np.array_equal(original.columns.xyz, converted.columns.xyz)

    def test_analyze_rtrc_with_shards_matches_unsharded(self, trace_path, tmp_path, capsys):
        out = tmp_path / "mini.rtrc"
        assert main(["convert", str(trace_path), str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(out), "--range", "10", "--every", "6"]) == 0
        unsharded = capsys.readouterr().out
        assert main([
            "analyze", str(out), "--range", "10", "--every", "6", "--shards", "3",
        ]) == 0
        sharded = capsys.readouterr().out
        assert sharded == unsharded
        assert "Dance Island" in sharded


class TestCrawlStreaming:
    @pytest.fixture(scope="class")
    def crawl_store(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("crawl") / "live"
        code = main([
            "crawl", "--land", "dance", "--hours", "0.1",
            "--spinup", "600", "--seed", "3",
            "--round-minutes", "2", "--out", str(out),
        ])
        assert code == 0
        return out

    def test_crawl_matches_one_shot_simulate(self, crawl_store, tmp_path):
        # Same seed, same land: the streamed store must be bit-for-bit
        # the trace the buffered simulate pipeline writes.
        import numpy as np

        from repro.trace import read_trace, read_trace_rtrc

        one_shot = tmp_path / "one.rtrc"
        assert main([
            "simulate", "--land", "dance", "--hours", "0.1",
            "--spinup", "600", "--seed", "3", "--out", str(one_shot),
        ]) == 0
        streamed = read_trace(crawl_store)
        expected = read_trace_rtrc(one_shot)
        assert np.array_equal(streamed.columns.times, expected.columns.times)
        assert np.array_equal(streamed.columns.user_ids, expected.columns.user_ids)
        assert np.array_equal(streamed.columns.xyz, expected.columns.xyz)
        assert streamed.columns.users.names == expected.columns.users.names
        assert streamed.metadata == expected.metadata

    def test_convert_exports_the_crawl_as_one_file(self, crawl_store, tmp_path):
        # `convert <shard-dir> x.rtrc` is the export route the
        # single-file refusals point to: its output must load bit for
        # bit equal to the concat-load of the directory.
        import numpy as np

        from repro.trace import concat_shards, read_rtrc_dir, read_trace_rtrc

        out = tmp_path / "exported.rtrc"
        assert main(["convert", str(crawl_store), str(out)]) == 0
        exported = read_trace_rtrc(out)
        expected = concat_shards(read_rtrc_dir(crawl_store))
        for name in ("times", "snapshot_offsets", "user_ids", "xyz"):
            assert np.array_equal(
                getattr(exported.columns, name), getattr(expected.columns, name)
            )
        assert exported.columns.users.names == expected.columns.users.names
        assert exported.metadata == expected.metadata

    def test_shard_export_reads_a_shard_dir(self, crawl_store, tmp_path):
        import numpy as np

        from repro.trace import concat_shards, read_rtrc_dir

        out = tmp_path / "resharded"
        assert main(["shard-export", str(crawl_store), str(out), "--shards", "2"]) == 0
        resharded = concat_shards(read_rtrc_dir(out))
        expected = concat_shards(read_rtrc_dir(crawl_store))
        assert len(read_rtrc_dir(out)) == 2
        assert np.array_equal(resharded.columns.xyz, expected.columns.xyz)
        assert np.array_equal(resharded.columns.times, expected.columns.times)

    def test_crawl_follow_prints_live_status(self, tmp_path, capsys):
        out = tmp_path / "follow"
        code = main([
            "crawl", "--land", "dance", "--hours", "0.05",
            "--spinup", "300", "--round-minutes", "1",
            "--out", str(out), "--follow",
        ])
        assert code == 0
        status = capsys.readouterr().err
        assert "contacts(r=10)" in status
        assert "sessions=" in status

    @pytest.mark.parametrize("target", ["x.csv", "x.rtrc", "x.rtrc.gz"])
    def test_crawl_rejects_non_rtrc_target(self, tmp_path, capsys, target):
        # Crawls stream into shard directories only; a file target is
        # refused with the shard-dir route and the export command.
        code = main([
            "crawl", "--land", "dance", "--hours", "0.05",
            "--out", str(tmp_path / target),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "shard directories" in err
        assert "slmob convert <dir> x.rtrc" in err
        assert not (tmp_path / target).exists()

    def test_analyze_follow_reports_and_exits(self, crawl_store, capsys):
        code = main([
            "analyze", str(crawl_store), "--follow",
            "--idle-rounds", "0", "--range", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "contacts(r=10)" in out
        assert "no growth" in out

    @pytest.mark.parametrize("name", ["x.csv", "x.rtrc", "not-yet.rtrc"])
    def test_analyze_follow_rejects_csv(self, tmp_path, capsys, name):
        # Only shard directories grow; a trace file (or a file path
        # that does not exist yet) is refused with the shard-dir route.
        path = tmp_path / name
        if name == "x.csv":
            path.write_text("time,user,x,y,z\n")
        elif name == "x.rtrc":
            from repro.trace import Trace, write_trace_rtrc
            from repro.trace.columnar import empty_store

            write_trace_rtrc(Trace.from_columns(empty_store()), path)
        assert main(["analyze", str(path), "--follow"]) == 2
        err = capsys.readouterr().err
        assert "shard directories" in err
        assert "slmob shard-export" in err

    def test_analyze_follow_rejects_gzip_store(self, tmp_path, capsys):
        # A gzipped store can never grow; tailing one would just
        # re-decompress forever.
        gz = tmp_path / "x.rtrc.gz"
        gz.write_bytes(b"")
        assert main(["analyze", str(gz), "--follow"]) == 2
        assert ".rtrc" in capsys.readouterr().err

    def test_crawl_help_documents_streaming(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crawl", "--help"])
        help_text = capsys.readouterr().out
        assert "--round-minutes" in help_text
        assert "--follow" in help_text


class TestValidateExitCodes:
    def test_validate_flags_dirty_trace(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.csv"
        dirty.write_text(
            "time,user,x,y,z\n"
            "0.0,sitter,0.0,0.0,0.0\n"
            "10.0,oob,999.0,10.0,0.0\n"
        )
        code = main(["validate", str(dirty)])
        # Warnings only: exit code stays 0, but issues are printed.
        assert code == 0
        out = capsys.readouterr().out
        assert "sitting-artifact" in out
        assert "out-of-bounds" in out


class TestShardDirCli:
    """The shard-dir surface: clean diagnostics, no raw tracebacks."""

    def _grown_dir(self, tmp_path):
        import numpy as np

        from repro.trace import RtrcDirAppender
        from tests.unit.core.test_sharded_equivalence import churn_trace

        trace = churn_trace(47)
        cols = trace.columns
        root = tmp_path / "shards"
        edges = np.linspace(0, cols.snapshot_count, 4).astype(int)
        with RtrcDirAppender(root, trace.metadata) as appender:
            for lo, hi in zip(edges[:-1], edges[1:]):
                for i in range(int(lo), int(hi)):
                    a, b = cols.snapshot_offsets[i], cols.snapshot_offsets[i + 1]
                    appender.append_snapshot(
                        float(cols.times[i]), cols.names_of(i), cols.xyz[a:b]
                    )
                appender.commit()
        return root

    def test_follow_before_producer_exits_cleanly(self, tmp_path, capsys):
        # Follower started before the crawler: exit 2 + message, not a
        # FileNotFoundError traceback.
        assert main(["analyze", str(tmp_path / "not-yet"), "--follow"]) == 2
        assert "start the crawl" in capsys.readouterr().err

    def test_batch_analyze_loads_a_shard_dir(self, tmp_path, capsys):
        root = self._grown_dir(tmp_path)
        assert main(["analyze", str(root), "--range", "15", "--every", "6"]) == 0
        assert "churn" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["analyze"], ["convert", "out.rtrc"], ["shard-export", "out", "--shards", "2"],
    ])
    def test_batch_analyze_rejects_a_non_shard_dir(self, tmp_path, capsys, command):
        # Every command that loads a trace reads a directory the same
        # way, and fails the same clean way on one that is not a
        # shard directory.
        empty = tmp_path / "empty-dir"
        empty.mkdir()
        assert main([command[0], str(empty), *command[1:]]) == 2
        assert "shard directory" in capsys.readouterr().err

    def test_analyze_backend_serial_needs_follow(self, tmp_path, capsys):
        root = self._grown_dir(tmp_path)
        assert main(["analyze", str(root), "--backend", "serial"]) == 2
        assert "--follow" in capsys.readouterr().err

    def test_compact_missing_target_exits_cleanly(self, tmp_path, capsys):
        assert main(["compact", str(tmp_path / "nothere.rtrc")]) == 2
        assert "no such store" in capsys.readouterr().err

    def test_compact_non_shard_dir_exits_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty-dir"
        empty.mkdir()
        assert main(["compact", str(empty)]) == 2
        assert "cannot compact" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compact", "serve"])
    def test_single_file_store_refused(self, tmp_path, capsys, command):
        # Live-store commands take shard directories only: an existing
        # .rtrc file is refused (exit 2) with the shard-dir route and
        # the single-file export, and is left untouched.
        from repro.trace import write_trace_rtrc
        from tests.unit.core.test_sharded_equivalence import churn_trace

        path = write_trace_rtrc(churn_trace(5), tmp_path / "flat.rtrc")
        before = path.read_bytes()
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "shard directories" in err
        assert "slmob shard-export" in err
        assert "slmob convert <dir> x.rtrc" in err
        assert path.read_bytes() == before

    def test_compact_shard_dir_round_trips(self, tmp_path, capsys):
        root = self._grown_dir(tmp_path)
        assert main(["compact", str(root), "--shards", "2"]) == 0
        assert "2 shard file(s)" in capsys.readouterr().err
        assert main(["analyze", str(root), "--range", "15"]) == 0

    def test_follow_racing_compaction_exits_with_guidance(
        self, tmp_path, capsys, monkeypatch
    ):
        # Regression: a compaction racing `analyze --follow` used to
        # escape as a raw StoreChangedError traceback.  It must exit 2
        # with the "compact only between followers" guidance.
        from repro.core import StoreChangedError

        root = self._grown_dir(tmp_path)

        def compacted_under(live):
            raise StoreChangedError(
                f"{root}: committed shard files changed under the analyzer"
            )

        monkeypatch.setattr("repro.cli._refresh_live", compacted_under)
        code = main([
            "analyze", str(root), "--follow",
            "--poll", "0.01", "--idle-rounds", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "compact only between followers" in err
        assert "slmob serve" in err


class TestServeCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "crawl-dir"])
        assert args.stores == ["crawl-dir"]
        assert args.host == "127.0.0.1"
        assert args.port == 8700
        assert args.backend == "serial"
        assert not args.ingest

    def test_serve_help_documents_ingest(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        help_text = capsys.readouterr().out
        assert "--ingest" in help_text
        assert "POST" in help_text

    def test_store_specs_default_names_are_basenames(self):
        from repro.cli import _serve_store_specs

        stores = _serve_store_specs(["crawls/dance", "apfel", "iov=crawls/live"])
        assert sorted(stores) == ["apfel", "dance", "iov"]
        assert str(stores["dance"]) == "crawls/dance"

    def test_store_specs_reject_duplicate_names(self):
        from repro.cli import _serve_store_specs

        with pytest.raises(ValueError, match="used twice"):
            _serve_store_specs(["a/dance", "b/dance"])

    def test_serve_missing_store_exits_cleanly(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nothere")]) == 2
        assert "cannot serve" in capsys.readouterr().err

    def test_serve_duplicate_store_names_exit_cleanly(self, tmp_path, capsys):
        assert main([
            "serve", str(tmp_path / "x" / "dance"), str(tmp_path / "y" / "dance"),
        ]) == 2
        assert "used twice" in capsys.readouterr().err

    def test_crawl_to_http_sink_posts_rounds(self, tmp_path, capsys):
        # End to end: `crawl --out http://...` streams through the
        # ingest endpoint into a service-owned shard directory.
        from repro.service import QueryService
        from repro.trace import read_rtrc_dir

        root = tmp_path / "ingested"
        with QueryService({"crawl": root}, ingest=True) as service:
            host, port = service.start()
            code = main([
                "crawl", "--land", "dance", "--hours", "0.05",
                "--spinup", "300", "--round-minutes", "1",
                "--out", f"http://{host}:{port}/v1/crawl",
            ])
            assert code == 0
            assert service.stats.ingested_rounds == 3
        err = capsys.readouterr().err
        assert "rounds_posted=3" in err
        shards = read_rtrc_dir(root)
        assert len(shards) == 3  # one committed shard file per round
        assert shards[0].metadata.land_name == "Dance Island"

    def test_crawl_http_sink_rejects_follow(self, capsys):
        code = main([
            "crawl", "--land", "dance", "--hours", "0.05",
            "--out", "http://127.0.0.1:1/v1/crawl", "--follow",
        ])
        assert code == 2
        assert "local store" in capsys.readouterr().err

    def test_crawl_http_sink_unreachable_service_fails_cleanly(self, capsys, monkeypatch):
        # Nothing listens on the target: exit 1 + message, no traceback,
        # after the whole retry budget — waited through a recording
        # no-op sleep instead of the real backoff.
        import repro.service as service_mod

        waits: list[float] = []
        sinks = []
        real_sink = service_mod.HttpRoundSink

        def recording_sink(url, **kwargs):
            sinks.append(real_sink(url, sleep=waits.append, **kwargs))
            return sinks[-1]

        monkeypatch.setattr(service_mod, "HttpRoundSink", recording_sink)
        code = main([
            "crawl", "--land", "dance", "--hours", "0.05",
            "--spinup", "0", "--round-minutes", "1",
            "--out", "http://127.0.0.1:1/v1/crawl",
        ])
        assert code == 1
        assert "ingest failed" in capsys.readouterr().err
        assert len(sinks) == 1
        assert len(waits) == sinks[0].retries


class TestScenarioFlags:
    def test_campus_land_available(self):
        args = build_parser().parse_args(
            ["simulate", "--land", "campus", "--out", "x.rtrc"]
        )
        assert args.land == "campus"

    def test_association_monitor_flag(self):
        args = build_parser().parse_args(
            ["simulate", "--land", "campus", "--monitor", "association",
             "--out", "x.rtrc"]
        )
        assert args.monitor == "association"

    def test_sensor_model_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--monitor", "sensors", "--sensor-model", "pathloss",
             "--sensor-sigma", "4", "--out", "x.rtrc"]
        )
        assert args.sensor_model == "pathloss"
        assert args.sensor_sigma == 4.0

    def test_metaverse_land_and_users(self):
        args = build_parser().parse_args(
            ["crawl", "--land", "metaverse", "--users", "500",
             "--out", "x.rtrc"]
        )
        assert args.land == "metaverse"
        assert args.users == 500

    def test_crawl_monitor_choices_exclude_sensors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["crawl", "--monitor", "sensors", "--out", "x.rtrc"]
            )

    def test_association_needs_access_points(self, tmp_path, capsys):
        code = main([
            "simulate", "--land", "dance", "--monitor", "association",
            "--hours", "0.01", "--spinup", "0",
            "--out", str(tmp_path / "x.rtrc"),
        ])
        assert code == 2
        assert "access" in capsys.readouterr().err


class TestScenarioRoundTrips:
    def test_campus_association_simulate_analyze(self, tmp_path, capsys):
        out = tmp_path / "campus.rtrc"
        assert main([
            "simulate", "--land", "campus", "--monitor", "association",
            "--hours", "0.15", "--spinup", "600", "--seed", "5",
            "--out", str(out),
        ]) == 0
        assert main(["analyze", str(out), "--range", "1", "--every", "6"]) == 0
        assert "Campus WLAN" in capsys.readouterr().out

    def test_campus_streamed_crawl_equals_buffered_simulate(self, tmp_path):
        import numpy as np

        from repro.trace import read_trace

        sim = tmp_path / "sim.rtrc"
        crawled = tmp_path / "crawl"
        world = ["--land", "campus", "--monitor", "association",
                 "--hours", "0.05", "--spinup", "300", "--seed", "5"]
        assert main(["simulate", *world, "--out", str(sim)]) == 0
        assert main([
            "crawl", *world, "--round-minutes", "1", "--out", str(crawled),
        ]) == 0
        a, b = read_trace(sim).columns, read_trace(crawled).columns
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.xyz, b.xyz)
        assert np.array_equal(a.snapshot_offsets, b.snapshot_offsets)
        assert [a.users.names[i] for i in a.user_ids] == [
            b.users.names[i] for i in b.user_ids
        ]

    def test_metaverse_streamed_crawl_equals_buffered_simulate(self, tmp_path):
        import numpy as np

        from repro.trace import read_trace

        sim = tmp_path / "sim.rtrc"
        crawled = tmp_path / "crawl"
        world = ["--land", "metaverse", "--users", "80", "--hours", "0.05",
                 "--seed", "9"]
        assert main(["simulate", *world, "--out", str(sim)]) == 0
        assert main([
            "crawl", *world, "--round-minutes", "1", "--out", str(crawled),
        ]) == 0
        a, b = read_trace(sim).columns, read_trace(crawled).columns
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.xyz, b.xyz)

    def test_pathloss_sensor_simulate_reproducible(self, tmp_path):
        import filecmp

        world = ["--land", "dance", "--monitor", "sensors",
                 "--sensor-model", "pathloss", "--hours", "0.05",
                 "--spinup", "300", "--seed", "4"]
        one = tmp_path / "one.rtrc"
        two = tmp_path / "two.rtrc"
        assert main(["simulate", *world, "--out", str(one)]) == 0
        assert main(["simulate", *world, "--out", str(two)]) == 0
        assert filecmp.cmp(one, two, shallow=False)
