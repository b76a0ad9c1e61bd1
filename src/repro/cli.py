"""Command-line interface: ``slmob`` / ``python -m repro``.

Ten subcommands cover the workflow end to end (full reference with
examples: ``docs/cli.md``)::

    slmob simulate --land dance --hours 2 --out dance.rtrc
    slmob simulate --land dance --monitor sensors --sensor-model pathloss \
        --out lossy.rtrc
    slmob simulate --land campus --monitor association --out campus.rtrc
    slmob crawl --land dance --hours 8 --out live-shards --follow
    slmob crawl --land campus --monitor association --out campus-live
    slmob crawl --land dance --out http://127.0.0.1:8700/v1/crawl
    slmob convert dance.csv.gz dance.rtrc
    slmob analyze dance.rtrc --shards 4 --backend process
    slmob analyze dance.rtrc --shards 4 --backend network --workers 4
    slmob analyze live-shards --follow --backend process
    slmob serve live-shards --port 8700 --ingest
    slmob worker http://127.0.0.1:8831/v1
    slmob shard-export dance.rtrc shards/ --shards 8
    slmob compact live-shards --shards 4
    slmob convert live-shards live.rtrc
    slmob validate dance.rtrc
    slmob experiments --hours 3          # paper-vs-measured report
    slmob experiments --full --out EXPERIMENTS.md

``simulate`` runs a calibrated land under a monitor and writes the
trace in one shot; ``crawl`` runs the same measurement *streaming* —
snapshots append round by round to a shard directory where every
committed round becomes its own immutable shard file
(:class:`~repro.trace.RtrcDirAppender`), and ``--follow`` analyzes
the growing directory incrementally; ``convert`` transcodes between
the CSV / JSONL / binary ``.rtrc`` formats (suffix decides; a shard
directory reads as one trace, so ``convert <dir> x.rtrc`` exports a
crawl as a single write-once file); ``analyze`` recomputes every §3
metric from a trace file or shard directory — with ``--shards K``
the heavy extractions fan out over K time shards, on threads or
(``--backend process``) spawned workers that memmap-load per-shard
``.rtrc`` files, and with ``--follow`` it tails a shard directory
another process is appending to (``--backend`` fans the catch-up
extractions too); with ``--backend network`` the analysis fans over
``worker`` processes — possibly on other machines — attached to an
HTTP coordinator the analyze process hosts (``--workers N`` spawns
local ones, ``--listen`` binds a routable address for remote ones);
``serve`` holds live followers over one or more shard directories and
answers cached JSON queries (contacts / sessions / zones / graph
metrics) over HTTP, optionally accepting crawl rounds via ``POST`` —
the target of ``crawl --out http://...``; ``shard-export``
materializes per-shard files (plus a manifest) for external workers;
``compact`` folds many small append-round shards into balanced ones;
``experiments`` regenerates the paper's tables and figures.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.core import (
    BLUETOOTH_RANGE,
    WIFI_RANGE,
    LiveAnalyzer,
    StoreChangedError,
    TraceAnalyzer,
)
from repro.core.report import log_grid, render_ccdf_table, render_summary_table
from repro.lands import scenario_presets
from repro.monitors import (
    AssociationMonitor,
    Crawler,
    PathLossModel,
    SensorNetwork,
    stream_monitors,
)
from repro.service import DEFAULT_INGEST_BODY_LIMIT, DEFAULT_INGEST_BUDGET
from repro.trace import (
    CompactionPolicy,
    RtrcDirAppender,
    TraceFormatError,
    compact_shard_dir,
    list_rtrc_dir,
    read_trace,
    retain_shard_dir,
    shard_dir_slack,
    tier_shard_dir,
    validate_trace,
    write_trace,
)

_LAND_KEYS = {
    "apfel": "Apfel Land",
    "campus": "Campus WLAN",
    "dance": "Dance Island",
    "iov": "Isle of View",
}


def _build_world(args: argparse.Namespace):
    """Land preset + warmed-up world shared by ``simulate`` and ``crawl``."""
    land_name = _LAND_KEYS[args.land]
    preset = scenario_presets()[land_name]
    world = preset.build(seed=args.seed, start_time=args.start_hour * 3600.0)
    if args.spinup > 0:
        world.run_until(world.now + args.spinup)
    return land_name, preset, world


def _make_monitor(args: argparse.Namespace, preset, sink=None):
    """The monitor behind ``--monitor`` (and its sensor-channel flags).

    Returns ``None`` (after printing guidance) when the combination is
    invalid — association needs a land that carries access points, and
    the sensor network buffers in script memory so it cannot stream to
    a crawl sink.
    """
    if args.monitor == "crawler":
        return Crawler(tau=args.tau, mimic=not args.naive, sink=sink)
    if args.monitor == "association":
        access_points = getattr(preset, "access_points", None)
        if access_points is None or len(access_points) == 0:
            print(
                f"--monitor association needs a land with WLAN access "
                f"points; {preset.land.name!r} has none (try --land campus)",
                file=sys.stderr,
            )
            return None
        return AssociationMonitor(
            access_points,
            tau=args.tau,
            association_range=preset.association_range,
            sink=sink,
        )
    # sensors: detections buffer in 16 KB script caches and flush
    # through the rate-limited web server, so there is no sink path.
    channel = None
    if args.sensor_model == "pathloss":
        channel = PathLossModel(shadowing_sigma=args.sensor_sigma)
    return SensorNetwork(tau=args.tau, channel=channel, seed=args.seed)


def _metaverse_trace_cli(args: argparse.Namespace):
    """The synthetic metaverse workload behind ``--land metaverse``.

    Deterministic in (``--seed``, ``--users``, ``--hours``, ``--tau``)
    alone — there is no world to monitor, so ``--spinup`` /
    ``--start-hour`` / ``--monitor`` do not apply.
    """
    import numpy as np

    from repro.trace import metaverse_trace

    if args.monitor != "crawler":
        print(
            "--land metaverse generates its trace directly; --monitor "
            "does not apply (drop the flag)",
            file=sys.stderr,
        )
        return None
    steps = max(1, round(args.hours * 3600.0 / args.tau))
    rng = np.random.default_rng(args.seed)
    return metaverse_trace(args.users, steps, rng, tau=args.tau)


def _replay_rounds(trace, sink, round_seconds: float):
    """Append a prebuilt trace to a crawl sink, yielding round boundaries.

    The generator mirrors :func:`~repro.monitors.stream_monitors`: it
    appends snapshots and yields the clock whenever a round's worth of
    trace time has been appended — the caller commits, exactly as in a
    live crawl, so a streamed metaverse crawl and a buffered simulate
    produce identical stores.
    """
    sink.metadata = trace.metadata
    cols = trace.columns
    names = cols.users.names
    next_round = float(cols.times[0]) + round_seconds
    for i, t in enumerate(cols.times):
        t = float(t)
        if t > next_round:
            yield next_round
            next_round += round_seconds
        lo = int(cols.snapshot_offsets[i])
        hi = int(cols.snapshot_offsets[i + 1])
        sink.append_snapshot(
            t, [names[j] for j in cols.user_ids[lo:hi]], cols.xyz[lo:hi]
        )
    yield float(cols.times[-1])


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.land == "metaverse":
        trace = _metaverse_trace_cli(args)
        if trace is None:
            return 2
        print(
            f"generating synthetic metaverse: {args.users} avatars for "
            f"{args.hours:.2f} h (tau={args.tau:g}s, seed={args.seed})...",
            file=sys.stderr,
        )
    else:
        land_name, preset, world = _build_world(args)
        monitor = _make_monitor(args, preset)
        if monitor is None:
            return 2
        print(
            f"simulating {land_name!r} for {args.hours:.2f} h "
            f"(tau={args.tau:g}s, seed={args.seed}, monitor={args.monitor})...",
            file=sys.stderr,
        )
        trace = monitor.monitor(world, args.hours * 3600.0)
    out = Path(args.out)
    write_trace(trace, out)
    print(
        f"wrote {out}: {len(trace)} snapshots, "
        f"{len(trace.unique_users())} unique users",
        file=sys.stderr,
    )
    return 0


def _live_status(live: LiveAnalyzer, ranges: list[float], now: float | None) -> str:
    """One incremental status line for the crawl / follow loops."""
    clock = f"t={now:.0f}s " if now is not None else ""
    parts = [
        f"{clock}snapshots={live.snapshot_count} "
        f"observations={live.observation_count}"
    ]
    for r in ranges:
        parts.append(f"contacts(r={r:g})={len(live.contacts(r))}")
    parts.append(f"sessions={len(live.sessions())}")
    return " ".join(parts)


def _is_shard_dir_path(path: Path) -> bool:
    """Whether a live-store target names a shard directory.

    An existing directory, or a *fresh* path with no suffix, is one (a
    crawl creates it); anything else — a trace file, or a path with a
    suffix — is refused by :func:`_refuse_single_file` instead of
    being mkdir-ed over.
    """
    return path.is_dir() or (path.suffix == "" and not path.exists())


def _refuse_single_file(command: str, path: Path) -> int:
    """Exit 2: live stores are shard directories, never one file."""
    print(
        f"{command} works on shard directories; {path} is not one "
        "(a single .rtrc file is write-once).  Use a shard directory: a "
        "suffix-less path for a new crawl, or 'slmob shard-export "
        "x.rtrc <dir>' for an existing file.  Export a directory back "
        "to one file with 'slmob convert <dir> x.rtrc'",
        file=sys.stderr,
    )
    return 2


def _crawl_http(args: argparse.Namespace) -> int:
    """Stream a crawl to a query service's ingest endpoint."""
    from repro.service import (
        HttpRoundSink,
        ServiceRejectedRound,
        ServiceUnreachable,
    )

    if args.follow:
        print(
            "--follow needs a local store to tail; with an http:// sink, "
            "query the service instead (GET <url>/contacts?r=10)",
            file=sys.stderr,
        )
        return 2
    if args.land == "metaverse":
        trace = _metaverse_trace_cli(args)
        if trace is None:
            return 2
        land_name = trace.metadata.land_name
    else:
        land_name, preset, world = _build_world(args)
    print(
        f"crawling {land_name!r} for {args.hours:.2f} h "
        f"(tau={args.tau:g}s, seed={args.seed}, monitor={args.monitor}, "
        f"round={args.round_minutes:g} min, posting rounds to {args.out})...",
        file=sys.stderr,
    )
    try:
        with HttpRoundSink(args.out) as sink:
            if args.land == "metaverse":
                rounds = _replay_rounds(trace, sink, args.round_minutes * 60.0)
            else:
                monitor = _make_monitor(args, preset, sink)
                if monitor is None:
                    return 2
                rounds = stream_monitors(
                    world, [monitor], args.hours * 3600.0, args.round_minutes * 60.0
                )
            for now in rounds:
                sink.commit()
                print(
                    f"t={now:.0f}s snapshots={sink.snapshot_count} "
                    f"users={sink.user_count} "
                    f"observations={sink.observation_count} "
                    f"rounds_posted={sink.rounds_posted}",
                    file=sys.stderr,
                )
    except (ServiceRejectedRound, ServiceUnreachable, OSError) as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"posted {sink.rounds_posted} rounds to {args.out}: "
        f"{sink.snapshot_count} snapshots, {sink.user_count} unique users",
        file=sys.stderr,
    )
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    if args.out.startswith(("http://", "https://")):
        return _crawl_http(args)
    out = Path(args.out)
    if not _is_shard_dir_path(out):
        return _refuse_single_file("crawl --out", out)
    policy = None
    if args.compact_every is not None:
        if args.compact_every < 1:
            print(
                f"--compact-every must be >= 1, got {args.compact_every}",
                file=sys.stderr,
            )
            return 2
        policy = CompactionPolicy(max_round_files=args.compact_every)
    if args.land == "metaverse":
        trace = _metaverse_trace_cli(args)
        if trace is None:
            return 2
        land_name = trace.metadata.land_name
    else:
        land_name, preset, world = _build_world(args)
    ranges = args.range or [BLUETOOTH_RANGE]
    print(
        f"crawling {land_name!r} for {args.hours:.2f} h "
        f"(tau={args.tau:g}s, seed={args.seed}, monitor={args.monitor}, "
        f"round={args.round_minutes:g} min, streaming to {out}"
        " [shard dir, one file per round]"
        f"{f' [auto-compacting past {args.compact_every} files]' if policy else ''}"
        ")...",
        file=sys.stderr,
    )
    with RtrcDirAppender(out, policy=policy) as appender:
        if args.land == "metaverse":
            rounds = _replay_rounds(trace, appender, args.round_minutes * 60.0)
        else:
            monitor = _make_monitor(args, preset, sink=appender)
            if monitor is None:
                return 2
            rounds = stream_monitors(
                world, [monitor], args.hours * 3600.0, args.round_minutes * 60.0
            )
        live = LiveAnalyzer(out) if args.follow else None
        try:
            for now in rounds:
                # The commit is the durability point: everything this
                # round observed is now visible to concurrent readers.
                appender.commit()
                if live is not None:
                    try:
                        live.refresh()
                    except StoreChangedError:
                        # The appender's own auto-compaction rewrote the
                        # committed history; the follower degrades
                        # gracefully by re-opening over the compacted
                        # directory (same data, new generation).
                        live.close()
                        live = _open_live(out)
                        print(
                            "follower re-opened after auto-compaction",
                            file=sys.stderr,
                        )
                    print(_live_status(live, ranges, now), file=sys.stderr)
                else:
                    print(
                        f"t={now:.0f}s snapshots={appender.snapshot_count} "
                        f"users={appender.user_count} "
                        f"observations={appender.observation_count}",
                        file=sys.stderr,
                    )
        finally:
            if live is not None:
                live.close()
    print(
        f"wrote {out}: {appender.snapshot_count} snapshots, "
        f"{appender.user_count} unique users",
        file=sys.stderr,
    )
    return 0


def _network_options(args: argparse.Namespace):
    """Build the coordinator options behind ``--workers`` / ``--listen``."""
    from repro.distributed import NetworkOptions

    options = NetworkOptions(spawn_workers=args.workers)
    if args.listen:
        host, sep, port = args.listen.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"--listen expects HOST:PORT, got {args.listen!r}"
            )
        options.host = host or "127.0.0.1"
        options.port = int(port)
    return options


# Consecutive polls that may hit StoreChangedError (each answered by a
# follower re-open) before `analyze --follow` gives up.  A one-shot
# compaction recovers on the first re-open; a store rewritten on every
# poll can never converge.
_FOLLOW_REOPEN_LIMIT = 3


def _follow_analyze(args: argparse.Namespace, network=None) -> int:
    """Tail a growing store: report after every observed commit.

    A :class:`~repro.trace.StoreChangedError` mid-follow means a
    compaction (or retention pass) rewrote the committed history under
    this follower.  The store is still valid — only the follower's
    incremental state is stale — so the follower re-opens over the new
    generation and keeps tailing, the same degradation ``slmob serve``
    applies.  Re-computation of the rewritten history counts as
    growth, so the idle countdown restarts.  If the store keeps
    changing on every consecutive poll, re-opening cannot converge;
    the follower then fails with guidance instead of spinning.
    """
    ranges = args.range or [BLUETOOTH_RANGE, WIFI_RANGE]
    idle = 0
    churn = 0
    backend = args.backend or "serial"
    live = _open_live(args.trace, backend, network)
    try:
        if backend == "network":
            print(
                f"network coordinator at {live.network_url()} "
                "(attach workers with: slmob worker <url>)",
                file=sys.stderr,
            )
        if live.snapshot_count:
            print(_live_status(live, ranges, None))
        while idle < args.idle_rounds:
            time.sleep(args.poll)
            try:
                grown = _refresh_live(live)
            except StoreChangedError as exc:
                churn += 1
                if churn >= _FOLLOW_REOPEN_LIMIT:
                    print(
                        f"store changed under the follower: {exc}\n"
                        "compact only between followers — stop this "
                        "follower before running 'slmob compact', or serve "
                        "the store through 'slmob serve' (the service "
                        "re-opens its follower after a compaction)",
                        file=sys.stderr,
                    )
                    return 2
                live.close()
                live = _open_live(args.trace, backend, network)
                print(
                    "store was compacted under the follower; re-opened over "
                    "the new generation",
                    file=sys.stderr,
                )
                grown = live.snapshot_count
            else:
                churn = 0
            if grown:
                idle = 0
                print(_live_status(live, ranges, None))
            else:
                idle += 1
        print(
            f"no growth after {args.idle_rounds} polls of {args.poll:g}s; "
            f"final state: {live.snapshot_count} snapshots, "
            f"{live.part_count} append rounds observed"
        )
    finally:
        live.close()
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    trace = read_trace(Path(args.input))
    out = write_trace(trace, Path(args.output))
    print(
        f"wrote {out}: {len(trace)} snapshots, "
        f"{trace.columns.observation_count} observations",
        file=sys.stderr,
    )
    return 0


def _cmd_shard_export(args: argparse.Namespace) -> int:
    from repro.trace import to_rtrc_dir

    trace = read_trace(Path(args.input))
    paths = to_rtrc_dir(trace, args.shards, Path(args.outdir), gzip_shards=args.gzip)
    total = trace.columns.observation_count
    print(
        f"wrote {len(paths)} shard files + manifest to {args.outdir}: "
        f"{len(trace)} snapshots, {total} observations",
        file=sys.stderr,
    )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    """The shard-directory lifecycle passes behind ``slmob compact``.

    Runs retention, then the (possibly threshold-gated) streaming
    compaction, then tiering — the same order
    :meth:`~repro.trace.RtrcDirAppender.maybe_compact` uses.  With no
    threshold flags the compaction is unconditional (the historical
    behavior); with ``--max-round-files`` / ``--max-slack`` it runs
    only when due, so a cron line can invoke this idempotently.  With
    only ``--retain`` / ``--tier-after``, compaction is skipped
    entirely.
    """
    target = Path(args.store)
    if not target.exists():
        print(f"{target}: no such store or shard directory", file=sys.stderr)
        return 2
    if not target.is_dir():
        return _refuse_single_file("compact", target)
    before = sum(p.stat().st_size for p in target.iterdir() if p.is_file())
    gated = args.max_round_files is not None or args.max_slack is not None
    aging_only = (
        not gated and (args.retain is not None or args.tier_after is not None)
    )
    batch_kwargs: dict = {}
    if args.materialize:
        batch_kwargs["batch_snapshots"] = None
    elif args.batch_snapshots is not None:
        batch_kwargs["batch_snapshots"] = args.batch_snapshots
    try:
        if args.retain is not None:
            dropped = retain_shard_dir(target, args.retain)
            if dropped:
                print(
                    f"retention dropped {len(dropped)} shard file(s) older "
                    f"than {args.retain:g}s",
                    file=sys.stderr,
                )
        due = not aging_only
        if gated:
            files = list_rtrc_dir(target)
            slack = (
                shard_dir_slack(target) if args.max_slack is not None else 0.0
            )
            policy = CompactionPolicy(
                max_round_files=args.max_round_files,
                max_slack_fraction=args.max_slack,
                target_shards=args.shards,
            )
            due = len(files) > args.shards and policy.compaction_due(
                len(files), slack
            )
            if not due:
                print(
                    f"compaction not due: {len(files)} file(s), "
                    f"slack {slack:.2f}",
                    file=sys.stderr,
                )
        if due:
            paths = compact_shard_dir(
                target,
                args.shards,
                gzip_shards=args.gzip,
                **batch_kwargs,
            )
            print(
                f"compacted {target} into {len(paths)} shard file(s)",
                file=sys.stderr,
            )
        if args.tier_after is not None:
            tiered = tier_shard_dir(target, args.tier_after)
            if tiered:
                print(
                    f"tiered {len(tiered)} cold shard file(s) to .gz",
                    file=sys.stderr,
                )
    except (TraceFormatError, ValueError) as exc:
        print(f"cannot compact shard directory: {exc}", file=sys.stderr)
        return 2
    after = sum(p.stat().st_size for p in target.iterdir() if p.is_file())
    print(f"{target}: {before} -> {after} bytes", file=sys.stderr)
    return 0


def _open_live(path, backend: str = "serial", network=None) -> LiveAnalyzer:
    """Open a LiveAnalyzer, absorbing one racing manifest swap.

    A read that lands between a compaction's manifest swap and its
    file cleanup can miss a shard file.  One short retry separates
    that transient from real corruption.
    """
    try:
        return LiveAnalyzer(path, backend=backend, network=network)
    except TraceFormatError:
        time.sleep(0.05)
        return LiveAnalyzer(path, backend=backend, network=network)


def _refresh_live(live: LiveAnalyzer) -> int:
    """``live.refresh()`` with the same transient-read retry."""
    try:
        return live.refresh()
    except TraceFormatError:
        time.sleep(0.05)
        return live.refresh()


def _cmd_analyze(args: argparse.Namespace) -> int:
    source = Path(args.trace)
    network = None
    if args.backend == "network":
        try:
            network = _network_options(args)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.follow:
        if not _is_shard_dir_path(source):
            return _refuse_single_file("analyze --follow", source)
        if not source.exists():
            # A follower started before its producer: fail cleanly
            # instead of a raw traceback.
            print(
                f"{source}: nothing to follow yet — start the crawl "
                "first (or create the store), then re-run",
                file=sys.stderr,
            )
            return 2
        return _follow_analyze(args, network)
    backend = args.backend or "thread"
    if backend == "serial":
        print(
            "--backend serial only applies to --follow; batch analysis "
            "with --shards 1 is already serial",
            file=sys.stderr,
        )
        return 2
    if backend == "network" and args.shards < 2:
        print(
            "--backend network needs --shards >= 2: a single shard runs "
            "inline, so there is nothing to distribute",
            file=sys.stderr,
        )
        return 2
    trace = read_trace(source)
    with TraceAnalyzer(
        trace, shards=args.shards, backend=backend, network=network
    ) as analyzer:
        if backend == "network":
            # Print the URL before the first extraction so externally
            # attached workers (--workers 0) have an address to join.
            print(
                f"network coordinator at {analyzer.network_url()} "
                "(attach workers with: slmob worker <url>)",
                file=sys.stderr,
            )
        summary = analyzer.summary()
        print(f"== {summary.land_name} ==")
        print(render_summary_table([summary.row()]))

        ranges = args.range or [BLUETOOTH_RANGE, WIFI_RANGE]
        # One batched pass builds the neighbour grid once per snapshot for
        # every requested radius.
        analyzer.contacts_multirange(ranges)
        grid = log_grid(trace.metadata.tau, 1e4, 7)
        for r in ranges:
            print(f"\n-- temporal metrics at r={r:g} m (CCDF) --")
            series = {
                "CT": analyzer.contact_times(r),
                "ICT": analyzer.inter_contact_times(r),
                "FT": analyzer.first_contact_times(r),
            }
            print(render_ccdf_table(series, grid, complementary=True))
            print(f"\n-- graph metrics at r={r:g} m --")
            print(
                render_summary_table(
                    [
                        {
                            "median_degree": analyzer.degrees(r, args.every).median,
                            "isolated": round(analyzer.isolation_fraction(r, args.every), 3),
                            "median_diameter": analyzer.diameters(r, args.every).median,
                            "median_clustering": round(
                                analyzer.clustering(r, args.every).median, 3
                            ),
                        }
                    ]
                )
            )

        print("\n-- trip metrics --")
        print(
            render_summary_table(
                [
                    {
                        "metric": "travel length (m)",
                        "median": round(analyzer.travel_lengths().median, 1),
                        "p90": round(float(analyzer.travel_lengths().quantile(0.9)), 1),
                    },
                    {
                        "metric": "effective travel time (s)",
                        "median": round(analyzer.effective_travel_times().median, 1),
                        "p90": round(float(analyzer.effective_travel_times().quantile(0.9)), 1),
                    },
                    {
                        "metric": "travel time (s)",
                        "median": round(analyzer.travel_times().median, 1),
                        "p90": round(float(analyzer.travel_times().quantile(0.9)), 1),
                    },
                ]
            )
        )
        occupancy = analyzer.zone_occupation(20.0, args.every)
        print(f"\nzone occupation (L=20m): {float(occupancy.cdf(0.0)):.1%} empty cells, "
              f"busiest cell {occupancy.max:.0f} users")
    return 0


def _serve_store_specs(specs: list[str]) -> dict[str, Path]:
    """Parse ``[name=]PATH`` store arguments into ``{name: path}``.

    The default name is the path's basename — ``crawls/dance`` serves
    as ``/v1/dance``.
    """
    stores: dict[str, Path] = {}
    for spec in specs:
        if "=" in spec:
            name, _, raw = spec.partition("=")
        else:
            raw = spec
            name = Path(raw).name
        if not name or "/" in name:
            raise ValueError(f"invalid store name in {spec!r}")
        if name in stores:
            raise ValueError(
                f"store name {name!r} used twice; disambiguate with name=PATH"
            )
        stores[name] = Path(raw)
    return stores


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import QueryService

    try:
        stores = _serve_store_specs(args.stores)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for path in stores.values():
        if not _is_shard_dir_path(path):
            return _refuse_single_file("serve", path)
    try:
        service = QueryService(
            stores,
            host=args.host,
            port=args.port,
            backend=args.backend,
            ingest=args.ingest,
            ingest_budget=args.ingest_budget,
            ingest_body_limit=args.ingest_body_limit,
            verbose=not args.quiet,
        )
    except (ValueError, TraceFormatError) as exc:
        print(f"cannot serve: {exc}", file=sys.stderr)
        return 2
    with service:
        host, port = service.bind()
        names = ", ".join(sorted(stores))
        print(
            f"serving {names} on http://{host}:{port}/v1 "
            f"(ingest {'enabled' if args.ingest else 'disabled'}); Ctrl-C stops",
            file=sys.stderr,
        )
        try:
            service.serve_forever()
        except KeyboardInterrupt:
            print("stopping", file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one network-backend worker against a coordinator.

    The ``SLMOB_WORKER_CHAOS`` environment variable injects faults for
    the distributed test-suite (``exit-after-claim``,
    ``sleep-after-claim:SECONDS``); it is not part of the public
    interface.
    """
    from repro.distributed import NetworkWorker

    worker = NetworkWorker(
        args.coordinator,
        poll_wait=args.poll,
        chaos=os.environ.get("SLMOB_WORKER_CHAOS"),
        quiet=args.quiet,
    )
    done = worker.run()
    if not args.quiet:
        print(f"coordinator gone; {done} task(s) completed", file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    trace = read_trace(Path(args.trace))
    issues = validate_trace(trace)
    if not issues:
        print("trace is clean")
        return 0
    for issue in issues[: args.limit]:
        print(str(issue))
    if len(issues) > args.limit:
        print(f"... and {len(issues) - args.limit} more")
    return 1 if any(i.severity == "error" for i in issues) else 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import FULL_CONFIG, render_experiment_report
    from repro.experiments.runner import quick_config

    config = FULL_CONFIG if args.full else quick_config(args.hours)
    if args.every is not None:
        from dataclasses import replace

        config = replace(config, every=args.every)
    print(
        f"regenerating the paper's evaluation "
        f"({config.duration / 3600.0:.0f} h window; this simulates all "
        "three lands)...",
        file=sys.stderr,
    )
    report = render_experiment_report(config)
    header = "# EXPERIMENTS — paper vs measured\n\n"
    body = header + report if args.out else report
    if args.out:
        Path(args.out).write_text(body, encoding="utf-8")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slmob",
        description="Reproduction toolkit for 'Characterizing User Mobility in Second Life'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_world_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--land",
                            choices=sorted(_LAND_KEYS) + ["metaverse"],
                            default="dance",
                            help="scenario: a simulated land preset, or "
                                 "'metaverse' for the synthetic Zipf-hotspot "
                                 "avatar workload (generated directly; "
                                 "--users scales it)")
        parser.add_argument("--users", type=int, default=2000,
                            help="with --land metaverse: avatar count "
                                 "(default 2000; scale up for million-"
                                 "avatar load generation)")
        parser.add_argument("--hours", type=float, default=1.0)
        parser.add_argument("--tau", type=float, default=10.0)
        parser.add_argument("--seed", type=int, default=2008)
        parser.add_argument("--start-hour", type=float, default=12.0)
        parser.add_argument("--spinup", type=float, default=1800.0)
        parser.add_argument("--naive", action="store_true",
                            help="use the perturbing (non-mimicking) crawler")

    simulate = sub.add_parser("simulate", help="simulate a land and write a trace")
    add_world_args(simulate)
    simulate.add_argument("--monitor",
                          choices=["crawler", "sensors", "association"],
                          default="crawler",
                          help="observable: 'crawler' records coordinates; "
                               "'sensors' runs the in-world sensor grid with "
                               "its platform limits; 'association' records "
                               "nearest-AP WLAN associations (needs a land "
                               "with access points, e.g. --land campus)")
    simulate.add_argument("--sensor-model", choices=["hard", "pathloss"],
                          default="hard",
                          help="with --monitor sensors: 'hard' is the "
                               "deterministic 96 m LSL disc; 'pathloss' "
                               "detects probabilistically with distance "
                               "(log-distance decay + shadowing)")
    simulate.add_argument("--sensor-sigma", type=float, default=6.0,
                          help="with --sensor-model pathloss: shadow-fading "
                               "std dev in dB (0 degenerates to the hard "
                               "radius; default 6)")
    simulate.add_argument("--out", required=True,
                          help="output .csv[.gz], .jsonl[.gz] or .rtrc[.gz]")
    simulate.set_defaults(func=_cmd_simulate)

    crawl = sub.add_parser(
        "crawl",
        help="stream a live crawl into a shard directory, committing "
             "round by round",
    )
    add_world_args(crawl)
    crawl.add_argument("--monitor", choices=["crawler", "association"],
                       default="crawler",
                       help="streaming observable: 'crawler' records "
                            "coordinates, 'association' nearest-AP WLAN "
                            "associations (--land campus); the sensor grid "
                            "buffers in script memory and cannot stream")
    crawl.add_argument("--out", required=True,
                       help="output shard directory (a suffix-less path): "
                            "one file per committed round, created or "
                            "extended; export a single .rtrc afterwards "
                            "with 'slmob convert DIR x.rtrc'")
    crawl.add_argument("--round-minutes", type=float, default=10.0,
                       help="simulated minutes per append round; each round "
                            "ends in a commit (the crash-durability point)")
    crawl.add_argument("--follow", action="store_true",
                       help="incrementally analyze the growing store after "
                            "each commit and print a status line")
    crawl.add_argument("--range", type=float, action="append",
                       help="communication range(s) for --follow status "
                            "lines (repeatable; default bluetooth 10 m)")
    crawl.add_argument("--compact-every", type=int, default=None,
                       help="auto-compact the shard directory whenever it "
                            "exceeds this many committed round files "
                            "(streaming, bounded-memory; followers re-open "
                            "on the generation bump)")
    crawl.set_defaults(func=_cmd_crawl)

    convert = sub.add_parser(
        "convert", help="transcode a trace between csv/jsonl/rtrc (suffix decides)"
    )
    convert.add_argument("input", help="source trace (.csv[.gz], .jsonl[.gz], "
                                       ".rtrc[.gz], or a shard directory)")
    convert.add_argument("output", help="destination trace; format from suffix")
    convert.set_defaults(func=_cmd_convert)

    analyze = sub.add_parser("analyze", help="compute the paper's metrics from a trace")
    analyze.add_argument("trace", help="trace file or shard directory")
    analyze.add_argument("--range", type=float, action="append",
                         help="communication range(s) in meters (repeatable)")
    analyze.add_argument("--every", type=int, default=6,
                         help="snapshot stride for graph metrics")
    analyze.add_argument("--shards", type=int, default=1,
                         help="fan contact/session/zone/graph extraction over "
                              "this many time shards (1 = unsharded)")
    analyze.add_argument("--backend",
                         choices=["serial", "thread", "process", "network"],
                         default=None,
                         help="worker backend: 'thread' (batch default) "
                              "shares memory but serializes on the GIL; "
                              "'process' memmap-loads per-part .rtrc files "
                              "in spawned workers; 'network' serves the "
                              "same part files over an HTTP coordinator to "
                              "'slmob worker' processes (see --workers / "
                              "--listen); 'serial' (--follow default) runs "
                              "parts inline one at a time")
    analyze.add_argument("--workers", type=int, default=None,
                         help="with --backend network: local worker "
                              "processes to spawn and supervise (default: "
                              "CPU count; 0 = spawn none, attach workers "
                              "yourself with 'slmob worker <url>')")
    analyze.add_argument("--listen", default=None, metavar="HOST:PORT",
                         help="with --backend network: coordinator bind "
                              "address (default 127.0.0.1 on an ephemeral "
                              "port; bind a routable address to attach "
                              "workers from other machines)")
    analyze.add_argument("--follow", action="store_true",
                         help="tail a growing shard directory: re-read "
                              "after each commit and "
                              "extend contact/session results incrementally "
                              "(ignores --shards; honours --backend)")
    analyze.add_argument("--poll", type=float, default=2.0,
                         help="seconds between growth checks with --follow")
    analyze.add_argument("--idle-rounds", type=int, default=3,
                         help="stop --follow after this many growth-free "
                              "polls (0 = report once and exit)")
    analyze.set_defaults(func=_cmd_analyze)

    serve = sub.add_parser(
        "serve",
        help="serve cached JSON mobility analytics over live stores "
             "(contacts / sessions / zones / graph metrics), optionally "
             "accepting crawl rounds via POST",
    )
    serve.add_argument("stores", nargs="+", metavar="[NAME=]PATH",
                       help="shard director(ies) to serve; NAME= overrides "
                            "the URL segment (default: the basename)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8700,
                       help="bind port (default 8700; 0 picks a free port)")
    serve.add_argument("--backend",
                       choices=["serial", "thread", "process"],
                       default="serial",
                       help="follower backend for catch-up extraction "
                            "(as in analyze --follow)")
    serve.add_argument("--ingest", action="store_true",
                       help="accept POST /v1/<store>/rounds into shard-dir "
                            "stores (the service's appender must then be "
                            "the directory's only writer); a missing "
                            "suffix-less store path is created fresh")
    serve.add_argument("--ingest-budget", type=int,
                       default=DEFAULT_INGEST_BUDGET,
                       help="ingest requests allowed per sliding 60 s "
                            "window, across all stores")
    serve.add_argument("--ingest-body-limit", type=int,
                       default=DEFAULT_INGEST_BODY_LIMIT,
                       help="largest accepted ingest request body, bytes")
    serve.add_argument("--quiet", action="store_true",
                       help="do not log one line per request to stderr")
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="serve a network-backend coordinator: claim part tasks, "
             "fetch part files, run the extraction, stream encoded "
             "results back (exits when the coordinator goes away)",
    )
    worker.add_argument("coordinator",
                        help="coordinator base URL, e.g. "
                             "http://127.0.0.1:8831/v1 (printed by "
                             "'analyze --backend network')")
    worker.add_argument("--poll", type=float, default=0.05,
                        help="idle seconds between claim attempts, until "
                             "the coordinator advertises its own interval")
    worker.add_argument("--quiet", action="store_true",
                        help="suppress the per-task progress lines")
    worker.set_defaults(func=_cmd_worker)

    shard_export = sub.add_parser(
        "shard-export",
        help="materialize per-shard .rtrc files (plus a manifest) for "
             "parallel workers",
    )
    shard_export.add_argument("input",
                              help="source trace (.csv[.gz], .jsonl[.gz], "
                                   ".rtrc[.gz], or a shard directory)")
    shard_export.add_argument("outdir", help="destination directory")
    shard_export.add_argument("--shards", type=int, required=True,
                              help="number of contiguous time shards to write")
    shard_export.add_argument("--gzip", action="store_true",
                              help="write .rtrc.gz shards (not memmappable)")
    shard_export.set_defaults(func=_cmd_shard_export)

    compact = sub.add_parser(
        "compact",
        help="fold a shard directory's append-round files into balanced "
             "shards, with optional retention and gzip tiering",
    )
    compact.add_argument("store",
                         help="a shard directory (crawled round by round)")
    compact.add_argument("--shards", type=int, default=1,
                         help="shard count for the compacted directory "
                              "(default 1)")
    compact.add_argument("--gzip", action="store_true",
                         help="write compacted shards as .rtrc.gz "
                              "(not memmappable)")
    compact.add_argument("--max-round-files", type=int, default=None,
                         help="only compact a directory holding more than "
                              "this many files (makes the command an "
                              "idempotent cron line)")
    compact.add_argument("--max-slack", type=float, default=None,
                         help="only compact a directory whose non-payload "
                              "byte fraction exceeds this (0..1)")
    compact.add_argument("--batch-snapshots", type=int,
                         default=None,
                         help="snapshots per streaming-compaction batch "
                              "(bounds peak memory; default 4096)")
    compact.add_argument("--materialize", action="store_true",
                         help="use the legacy whole-store in-RAM rewrite "
                              "instead of the streaming compactor")
    compact.add_argument("--retain", type=float, default=None, metavar="SECONDS",
                         help="before compacting, drop shard files whose "
                              "entire time range is older than this many "
                              "trace-time seconds (relative to the newest "
                              "snapshot)")
    compact.add_argument("--tier-after", type=float, default=None, metavar="SECONDS",
                         help="after compacting, gzip shard files whose time "
                              "range ended more than this many trace-time "
                              "seconds before the newest snapshot")
    compact.set_defaults(func=_cmd_compact)

    validate = sub.add_parser("validate", help="run trace sanity checks")
    validate.add_argument("trace")
    validate.add_argument("--limit", type=int, default=20)
    validate.set_defaults(func=_cmd_validate)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument("--full", action="store_true",
                             help="paper-scale 24 h windows")
    experiments.add_argument("--hours", type=float, default=3.0,
                             help="window for the quick run (ignored with --full)")
    experiments.add_argument("--every", type=int, default=None,
                             help="override the graph-metric snapshot stride")
    experiments.add_argument("--out", help="write the report to this file")
    experiments.set_defaults(func=_cmd_experiments)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``slmob`` and ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceFormatError as exc:
        print(f"cannot load trace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
