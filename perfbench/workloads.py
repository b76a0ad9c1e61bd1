"""The four benchmark workloads, each driven through the package's public API.

Every workload follows the same plan:

1. *Set up* :data:`SETUPS` times (fresh-interpreter import of the
   workload's entry modules, input generation from the seed, any
   store or server the workload needs) and report the median.
2. *Measure* for the run's seconds, repeating the workload's unit of
   work (a figures pass, a crawl of :data:`CRAWL_ROUNDS` rounds, an
   open-loop serving window, a backfill) and checking every output.
3. With tracing on, measure half the time untraced and half with the
   layer spans of :mod:`spans` installed; the difference of the two
   halves is the tracing overhead, and the traced half gives the
   per-layer metrics.

Every workload reports the same end-to-end metrics (``setup_s``,
``peak_rss_mb``, ``op_p50_ms``, ``op_tail_ms``, ``op2_p50_ms``); what
"op" and "op2" are differs per workload, and the lines printed before
the result give the numbers under the names users know them by
(``round_p90_ms``, ``miss_get_p50_ms``, ...).  See ``README.md``.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from spans import REQUEST_HEADER, LAYER_OF_SPAN, SpanRecorder, instrument

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Contact range of every contact query (the paper's Bluetooth range).
RADIUS = 10.0

# -- workload sizes ---------------------------------------------------------

#: paper_figures: the benchmark window of the experiment harness,
#: shortened so that a run holds several passes over all three lands.
PAPER_HOURS = 0.5
PAPER_SPINUP_S = 1200.0
PAPER_EVERY = 18
#: Worlds a run cycles through, one per pass, all derived from its seed.
PAPER_WORLDS = 8
#: Shards of the analyzer that re-checks the first world's panels.
PAPER_CHECK_SHARDS = 3

#: walk_crawl: walkers, rounds per crawl, snapshots per committed round.
CRAWL_WALKERS = 400
CRAWL_ROUNDS = 100
CRAWL_SNAPSHOTS_PER_ROUND = 2

#: hotspot_serve: avatars, snapshots committed before serving and the
#: rounds they are committed in, snapshots per ingested round, the
#: dashboard's refresh rate (one GET per panel per refresh) and the
#: crawler's round period.
SERVE_AVATARS = 120
SERVE_INITIAL_SNAPSHOTS = 100
SERVE_INITIAL_ROUNDS = 6
SERVE_ROUND_SNAPSHOTS = 8
SERVE_REFRESH_RATE = 50.0
SERVE_ROUND_PERIOD_S = 2.0
SERVE_READ_PATHS = ("/v1/crawl/sessions", "/v1/crawl/zones?cell=20&every=4", f"/v1/crawl/contacts?r={RADIUS:g}")
SERVE_MISS_PATH = f"/v1/crawl/contacts?r={RADIUS:g}"
#: A generator still this late when its window closes fell behind.
SERVE_BEHIND_S = 1.0
#: Latency charged to a refused, failed or non-2xx request: it misses
#: every latency limit the benchmark could set.
FAILED_REQUEST_MS = 60_000.0

#: backfill_process: store shape, and the second (warm) radius.
BACKFILL_WALKERS = 1000
BACKFILL_SNAPSHOTS = 200
BACKFILL_ROUNDS = 8
BACKFILL_WARM_RADIUS = 5.0


# -- shared plumbing --------------------------------------------------------


@dataclass
class Run:
    """One invocation: its arguments, scratch space and tallies."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def phase_seconds(self) -> float:
        return self.seconds / 2.0 if self.trace else self.seconds


@dataclass
class Outcome:
    """What a workload hands back to :mod:`run`."""

    end_to_end: dict[str, float]
    layers: dict[str, float]
    report: list[tuple[str, float, str]]
    spans: list[dict]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_env(run: Run) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(run.work)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def fresh_import(run: Run, modules: list[str], statement: str = "") -> None:
    """Start a fresh interpreter that imports ``modules`` and exits."""
    code = "".join(f"import {m}\n" for m in modules) + statement
    subprocess.run([sys.executable, "-c", code], env=child_env(run), check=True, timeout=120)


def import_probe_s(run: Run, module: str, repeats: int = 3) -> float:
    """Median seconds ``import module`` takes inside a fresh interpreter."""
    code = (
        "import time\nt = time.perf_counter()\n"
        f"import {module}\nprint(time.perf_counter() - t)\n"
    )
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(run),
            check=True,
            timeout=120,
            capture_output=True,
            text=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def span_of(recorder: SpanRecorder | None, name: str, request: str | None = None):
    return recorder.span(name, request) if recorder is not None else nullcontext()


def layer_metrics(run: Run, recorder: SpanRecorder, units: int) -> dict[str, float]:
    """Per-layer self seconds and counts, per unit of the workload."""
    units = max(units, 1)
    selfs = recorder.self_times()
    totals = recorder.totals()
    layers = {metric: selfs.get(name, 0.0) / units for name, metric in LAYER_OF_SPAN.items()}
    layers["service.handle_get_s"] = totals.get("service.handle_get", 0.0) / units
    for key in COUNT_METRICS:
        layers[key] = recorder.counts.get(key, 0.0) / units
    layers["import.parallel_s"] = import_probe_s(run, "repro.core.parallel")
    layers["import.service_s"] = import_probe_s(run, "repro.service")
    return layers


#: Counters :func:`spans.instrument` and the workloads keep.
COUNT_METRICS = (
    "world.observations",
    "losgraph.snapshots",
    "grid.pairs",
    "kernels.intervals",
    "merge.parts",
    "store.bytes",
    "parallel.tasks",
    "service.body_bytes",
)


def traced_layers(run: Run, untimed_ops: list[float], phase) -> tuple[dict[str, float], list[dict]]:
    """Run ``phase`` with every layer traced; per-layer metrics and spans.

    ``phase(recorder)`` returns ``(op seconds, units of work)``; the
    benchmark's own ``op.*`` spans are the ops, so their self time is
    the share of op time no layer explains.
    """
    recorder = SpanRecorder()
    instrument(recorder)
    ops, units = phase(recorder)
    selfs, totals = recorder.self_times(), recorder.totals()
    op_total = sum(v for k, v in totals.items() if k.startswith("op."))
    op_self = sum(v for k, v in selfs.items() if k.startswith("op."))
    layers = finish_layers(
        layer_metrics(run, recorder, units),
        **{
            "trace.overhead_ms": 1e3 * (statistics.median(ops) - statistics.median(untimed_ops)),
            "trace.unaccounted_share": op_self / op_total if op_total > 0 else 0.0,
        },
    )
    return layers, [span.as_dict() for span in recorder.spans]


def finish_layers(layers: dict[str, float], **extra: float) -> dict[str, float]:
    """Fill the layer metrics a workload does not touch with 0."""
    for key in (
        "service.cache_hit_ratio",
        "http.transport_s",
        "load.late_p99_ms",
        "trace.overhead_ms",
        "trace.unaccounted_share",
    ):
        layers.setdefault(key, 0.0)
    layers.update(extra)
    return layers


def timed(call) -> float:
    """Seconds ``call()`` takes."""
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def timed_setups(setup) -> tuple[float, object]:
    """Run ``setup`` :data:`SETUPS` times; median seconds and last result."""
    results: list[object] = []
    seconds = statistics.median(timed(lambda: results.append(setup(i))) for i in range(SETUPS))
    return seconds, results[-1]


def contacts_bytes(contact_set, snapshots: int) -> bytes:
    from repro.service import contacts_payload, encode

    return encode(contacts_payload(contact_set, store="crawl", snapshots=snapshots, r=RADIUS))


def sessions_bytes(session_set, snapshots: int, gap: float) -> bytes:
    from repro.service import encode, sessions_payload

    return encode(sessions_payload(session_set, store="crawl", snapshots=snapshots, gap=gap))


def prefix(trace, snapshots: int):
    from repro.trace import Trace

    return Trace.from_columns(trace.columns.slice_snapshots(0, snapshots), trace.metadata)


def snapshot_args(trace, index: int) -> tuple[float, list[str], np.ndarray]:
    cols = trace.columns
    a, b = cols.snapshot_offsets[index], cols.snapshot_offsets[index + 1]
    return float(cols.times[index]), cols.names_of(index), cols.xyz[a:b]


def grow_store(trace, directory: Path, snapshots: int, rounds: int) -> Path:
    """Commit the first ``snapshots`` of ``trace`` as ``rounds`` rounds."""
    from repro.trace import RtrcDirAppender

    edges = np.linspace(0, snapshots, rounds + 1).astype(int)
    with RtrcDirAppender(directory, trace.metadata) as appender:
        for lo, hi in zip(edges[:-1], edges[1:]):
            for index in range(int(lo), int(hi)):
                appender.append_snapshot(*snapshot_args(trace, index))
            appender.commit()
    return directory


def fresh_dir(run: Run, name: str) -> Path:
    path = run.work / name
    if path.exists():
        shutil.rmtree(path)
    return path


# -- paper_figures ----------------------------------------------------------


def _paper_config(seed: int):
    from repro.experiments.runner import BENCH_CONFIG

    return replace(
        BENCH_CONFIG, duration=PAPER_HOURS * 3600.0, spinup=PAPER_SPINUP_S, every=PAPER_EVERY, seed=seed
    )


def _land_panels(trace, every: int, shards: int = 1) -> dict[str, object]:
    """Table 1's row and every Fig. 1-4 panel of one land's trace.

    A panel a short window leaves without samples maps to None, as in
    the harness's lenient mode.
    """
    from repro.core import BLUETOOTH_RANGE, WIFI_RANGE, TraceAnalyzer

    panels: dict[str, object] = {}
    with TraceAnalyzer(trace, shards=shards) as a:
        panels["table1"] = json.dumps(a.summary().row(), sort_keys=True)
        a.contacts_multirange((BLUETOOTH_RANGE, WIFI_RANGE))
        builders = {}
        for tag, r in (("rb", BLUETOOTH_RANGE), ("rw", WIFI_RANGE)):
            builders.update(
                {
                    f"ct_{tag}": lambda r=r: a.contact_times(r),
                    f"ict_{tag}": lambda r=r: a.inter_contact_times(r),
                    f"ft_{tag}": lambda r=r: a.first_contact_times(r),
                    f"degree_{tag}": lambda r=r: a.degrees(r, every),
                    f"diameter_{tag}": lambda r=r: a.diameters(r, every),
                    f"clustering_{tag}": lambda r=r: a.clustering(r, every),
                }
            )
        builders["zones"] = lambda: a.zone_occupation(20.0, every)
        builders["travel_length"] = a.travel_lengths
        builders["effective_travel_time"] = a.effective_travel_times
        builders["travel_time"] = a.travel_times
        for panel, build in builders.items():
            try:
                panels[panel] = build().values
            except ValueError:
                panels[panel] = None
    return panels


def _figures_pass(config, recorder: SpanRecorder | None):
    """Simulate the three lands, rebuild Table 1 and Figs. 1-4.

    Returns ``(panels, traces, observations, analysis seconds)``;
    ``panels`` maps ``land/panel`` to the panel's sorted samples.
    """
    from repro.experiments import runner
    from repro.lands import paper_presets

    panels: dict[str, object] = {}
    traces = {}
    observations = 0
    analysis_s = 0.0
    for land, preset in paper_presets().items():
        with span_of(recorder, "world.simulate"):
            trace = runner.simulate_preset(preset, config)
        traces[land] = trace
        observations += trace.columns.observation_count
        if recorder is not None:
            recorder.count("world.observations", trace.columns.observation_count)
        t0 = time.perf_counter()
        for panel, value in _land_panels(trace, config.every).items():
            panels[f"{land}/{panel}"] = value
        analysis_s += time.perf_counter() - t0
    return panels, traces, observations, analysis_s


def fingerprint(panels: dict[str, object]) -> str:
    import hashlib

    digest = hashlib.sha256()
    for key in sorted(panels):
        digest.update(key.encode())
        value = panels[key]
        if value is None:
            digest.update(b"<empty>")
        elif isinstance(value, str):
            digest.update(value.encode())
        else:
            digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    return digest.hexdigest()


def paper_figures(run: Run) -> Outcome:
    # Pass k simulates world seed 1000 * seed + k mod PAPER_WORLDS: a
    # run's figures span several worlds instead of resting on one
    # world's population, and every world seen again must give the
    # same figures.

    def setup(index: int) -> None:
        fresh_import(
            run,
            ["repro.experiments.runner", "repro.lands"],
            "repro.lands.paper_presets()\n",
        )

    setup_s, _ = timed_setups(setup)
    prints: dict[int, str] = {}
    first: list[tuple] = []  # the run's first pass: its traces and panels

    def phase(recorder: SpanRecorder | None):
        passes, analysis, obs, empty = [], [], 0, 0
        deadline = time.perf_counter() + run.phase_seconds
        while len(passes) < PAPER_WORLDS or time.perf_counter() < deadline:
            world = len(passes) % PAPER_WORLDS
            run.attempted += 1
            t0 = time.perf_counter()
            with span_of(recorder, "op.figures", f"p{len(passes)}"):
                panels, traces, observations, analysis_s = _figures_pass(
                    _paper_config(1000 * run.seed + world), recorder
                )
            passes.append(time.perf_counter() - t0)
            analysis.append(analysis_s)
            obs += observations
            empty += sum(v is None for v in panels.values())
            if not first:
                first.append((traces, panels))
            if all(v is None for v in panels.values()):
                run.fail(f"world {world}: every panel came back empty")
            digest = fingerprint(panels)
            if prints.setdefault(world, digest) != digest:
                run.fail(f"world {world}: figures differ from the same world's earlier pass")
        return passes, analysis, obs, empty

    passes, analysis, obs, empty = phase(None)
    # The sharded analyzer must reproduce the first world's panels
    # exactly (the equivalence contract of ``analyze --shards``).
    traces, panels = first[0]
    for land, trace in traces.items():
        sharded = _land_panels(trace, PAPER_EVERY, shards=PAPER_CHECK_SHARDS)
        own = {k.split("/", 1)[1]: v for k, v in panels.items() if k.startswith(f"{land}/")}
        if fingerprint(sharded) != fingerprint(own):
            run.fail(f"{land}: {PAPER_CHECK_SHARDS}-shard panels differ from the unsharded panels")
    layers, spans = {}, []
    if run.trace:
        def traced(recorder: SpanRecorder):
            t_passes = phase(recorder)[0]
            return t_passes, len(t_passes)

        layers, spans = traced_layers(run, passes, traced)
    figures_s = statistics.median(passes)
    report = [
        ("figures_s", figures_s, "s"),
        ("figures_analysis_s", statistics.median(analysis), "s"),
        ("figures_obs_per_s", obs / sum(passes), "1/s"),
        ("figures_passes", len(passes), "count"),
        ("figures_empty_panels_per_pass", empty / len(passes), "count"),
    ]
    for world, digest in sorted(prints.items()):
        print(f"paper_figures: world {1000 * run.seed + world} fingerprint {digest}")
    return Outcome(
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "op_p50_ms": 1e3 * figures_s,
            "op_tail_ms": 1e3 * percentile(passes, 90),
            "op2_p50_ms": 1e3 * statistics.median(analysis),
        },
        layers=layers,
        report=report,
        spans=spans,
    )


# -- walk_crawl -------------------------------------------------------------


def _walk(seed: int, walkers: int, snapshots: int):
    from repro.trace import random_walk_trace

    return random_walk_trace(walkers, snapshots, np.random.default_rng(seed))


def walk_crawl(run: Run) -> Outcome:
    from repro.core import LiveAnalyzer, extract_contact_set
    from repro.trace import RtrcDirAppender, extract_session_set

    snapshots = CRAWL_ROUNDS * CRAWL_SNAPSHOTS_PER_ROUND

    def setup(index: int):
        fresh_import(run, ["repro.core.live", "repro.trace"])
        return _walk(run.seed, CRAWL_WALKERS, snapshots)

    setup_s, trace = timed_setups(setup)
    gap = 2.0 * trace.metadata.tau
    expected_contacts = contacts_bytes(extract_contact_set(trace, RADIUS), snapshots)
    expected_sessions = sessions_bytes(extract_session_set(trace, gap), snapshots, gap)

    def crawl(recorder: SpanRecorder | None, index: int):
        rounds, commits = [], []
        root = fresh_dir(run, f"crawl-{index}")
        with RtrcDirAppender(root, trace.metadata) as appender, LiveAnalyzer(root) as live:
            for n in range(CRAWL_ROUNDS):
                run.attempted += 1
                t0 = time.perf_counter()
                with span_of(recorder, "op.round", f"c{index}r{n}"):
                    base = n * CRAWL_SNAPSHOTS_PER_ROUND
                    for s in range(base, base + CRAWL_SNAPSHOTS_PER_ROUND):
                        appender.append_snapshot(*snapshot_args(trace, s))
                    appender.commit()
                    t1 = time.perf_counter()
                    live.refresh()
                    contacts = live.contact_set(RADIUS)
                    sessions = live.session_set(gap)
                rounds.append(time.perf_counter() - t0)
                commits.append(t1 - t0)
        if contacts_bytes(contacts, snapshots) != expected_contacts:
            run.fail(f"crawl {index}: merged contacts differ from extract_contact_set")
        if sessions_bytes(sessions, snapshots, gap) != expected_sessions:
            run.fail(f"crawl {index}: merged sessions differ from extract_session_set")
        shutil.rmtree(root)
        return rounds, commits

    def phase(recorder: SpanRecorder | None, first: int):
        rounds, commits, crawls = [], [], 0
        deadline = time.perf_counter() + run.phase_seconds
        while crawls == 0 or time.perf_counter() < deadline:
            r, c = crawl(recorder, first + crawls)
            rounds += r
            commits += c
            crawls += 1
        return rounds, commits, crawls

    rounds, commits, crawls = phase(None, 0)
    layers, spans = {}, []
    if run.trace:
        def traced(recorder: SpanRecorder):
            t_rounds, _, t_crawls = phase(recorder, crawls)
            return t_rounds, t_crawls

        layers, spans = traced_layers(run, rounds, traced)
    obs_per_round = CRAWL_WALKERS * CRAWL_SNAPSHOTS_PER_ROUND
    report = [
        ("crawl_obs_per_s", obs_per_round * len(rounds) / sum(rounds), "1/s"),
        ("round_p50_ms", 1e3 * percentile(rounds, 50), "ms"),
        ("round_p90_ms", 1e3 * percentile(rounds, 90), "ms"),
        ("commit_p50_ms", 1e3 * percentile(commits, 50), "ms"),
        ("rounds", len(rounds), "count"),
    ]
    return Outcome(
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "op_p50_ms": 1e3 * percentile(rounds, 50),
            "op_tail_ms": 1e3 * percentile(rounds, 90),
            "op2_p50_ms": 1e3 * percentile(commits, 50),
        },
        layers=layers,
        report=report,
        spans=spans,
    )


# -- hotspot_serve ----------------------------------------------------------


class Server:
    """``slmob serve --ingest`` over one store, in its own process."""

    def __init__(self, run: Run, store: Path, traced: bool, tag: str) -> None:
        self.result_path = run.work / f"server-{tag}.json"
        self.log_path = run.work / f"server-{tag}.log"
        self.result_path.unlink(missing_ok=True)
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable,
                    str(HERE / "serve.py"),
                    "--store", str(store),
                    "--result", str(self.result_path),
                    "--trace", "1" if traced else "0",
                ],
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=child_env(run),
            )
        try:
            self.host, self.port = self._await_address()
            probe = self.connect()
            try:
                status, _ = self.request(probe, "GET", "/v1")
            finally:
                probe.close()
            if status != 200:
                raise RuntimeError(f"server answered /v1 with {status}")
        except BaseException:
            self.stop()
            raise

    def _await_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            if "http://" in text:
                address = text.split("http://", 1)[1].split("/", 1)[0]
                host, port = address.rsplit(":", 1)
                return host, int(port)
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited before serving: {text.strip()}")
            time.sleep(0.01)
        raise RuntimeError("server did not start within 60 s")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    @staticmethod
    def request(connection, method: str, path: str, body: bytes | None = None, request_id: str | None = None):
        headers = {REQUEST_HEADER: request_id} if request_id else {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()

    def stop(self) -> dict:
        """Stop the server (SIGINT, as Ctrl-C would) and read its report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.result_path.exists():
            return json.loads(self.result_path.read_text())
        return {}


def _round_bodies(trace, first: int, count: int) -> list[bytes]:
    """The crawler's POST bodies: ``count`` rounds after ``first`` snapshots."""
    bodies = []
    for n in range(count):
        lo = first + n * SERVE_ROUND_SNAPSHOTS
        snaps = []
        for index in range(lo, lo + SERVE_ROUND_SNAPSHOTS):
            t, users, xyz = snapshot_args(trace, index)
            snaps.append({"t": t, "users": users, "xyz": xyz.tolist()})
        bodies.append(json.dumps({"snapshots": snaps}).encode())
    return bodies


def _serve_window(server: Server, bodies: list[bytes], seconds: float):
    """Drive the dashboard reader and the crawler for ``seconds``."""
    reads: list[tuple] = []  # due, sent, done, worst status, [(request id, seconds)]
    rounds: list[tuple[float, float, float, int, int, bytes]] = []
    t0 = time.perf_counter() + 0.05
    stop_at = t0 + seconds

    def send(connection, method, path, body=None, request_id=None):
        try:
            return server.request(connection, method, path, body, request_id), connection
        except (OSError, http.client.HTTPException):
            connection.close()
            return (None, b""), server.connect()

    def reader() -> None:
        # A refresh is due every 1/rate s whether or not the last one
        # finished: the open loop, timed from when each refresh was due.
        connection = server.connect()
        i = 0
        while True:
            due = t0 + i / SERVE_REFRESH_RATE
            if due >= stop_at:
                break
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            gets, worst = [], 200
            for k, path in enumerate(SERVE_READ_PATHS):
                start = time.perf_counter()
                (status, _), connection = send(connection, "GET", path, request_id=f"g{i}.{k}")
                gets.append((f"g{i}.{k}", time.perf_counter() - start))
                if not (status and 200 <= status < 300):
                    worst = status or 0
            reads.append((due, sent, time.perf_counter(), worst, gets))
            i += 1
        connection.close()

    def crawler() -> None:
        connection = server.connect()
        for j, body in enumerate(bodies):
            due = t0 + (j + 0.5) * SERVE_ROUND_PERIOD_S
            if due >= stop_at:
                break
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            (post_status, _), connection = send(connection, "POST", "/v1/crawl/rounds", body, f"p{j}")
            posted = time.perf_counter()
            (get_status, payload), connection = send(connection, "GET", SERVE_MISS_PATH, request_id=f"m{j}")
            rounds.append((sent, posted, time.perf_counter(), post_status or 0, get_status or 0, payload))
        connection.close()

    threads = [threading.Thread(target=reader), threading.Thread(target=crawler)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return reads, rounds


def hotspot_serve(run: Run) -> Outcome:
    from repro.trace import metaverse_trace

    # Untimed, the run serves one window per set-up store, each store
    # a trace of its own seed derived from the run's, so one run's
    # figures span several hotspot layouts.  Traced, the first store's
    # trace is served once untraced and once traced.
    windows = 1 if run.trace else SETUPS
    # Every window holds at least one crawler round, however short the run.
    window_s = max(run.phase_seconds / windows, SERVE_ROUND_PERIOD_S)
    max_rounds = int(window_s / SERVE_ROUND_PERIOD_S) + 2
    total = SERVE_INITIAL_SNAPSHOTS + max_rounds * SERVE_ROUND_SNAPSHOTS
    inputs: list[tuple] = []
    servers: list[Server] = []

    def setup(index: int) -> Server:
        trace = metaverse_trace(
            SERVE_AVATARS, total, np.random.default_rng([run.seed, index]),
            size=1024.0, n_hotspots=48,
        )
        store = grow_store(
            trace, fresh_dir(run, f"store-{index}"), SERVE_INITIAL_SNAPSHOTS, SERVE_INITIAL_ROUNDS
        )
        inputs.append((trace, _round_bodies(trace, SERVE_INITIAL_SNAPSHOTS, max_rounds)))
        servers.append(Server(run, store, traced=False, tag=f"setup{index}"))
        return servers[-1]

    try:
        setup_s = statistics.median(timed(lambda: setup(i)) for i in range(SETUPS))
        results = []
        for index in range(windows):
            trace, bodies = inputs[index]
            results.append(_serve_one(run, servers[index], trace, bodies, window_s))
    finally:
        for server in servers:
            server.stop()
    layers: dict[str, float] = {}
    spans: list[dict] = []
    if run.trace:
        trace, bodies = inputs[0]
        store = grow_store(trace, fresh_dir(run, "store-traced"), SERVE_INITIAL_SNAPSHOTS, SERVE_INITIAL_ROUNDS)
        server = Server(run, store, traced=True, tag="traced")
        try:
            traced = _serve_one(run, server, trace, bodies, window_s)
        finally:
            server.stop()
        layers = _serve_layers(run, traced, results[0])
        spans = traced["server"].get("spans", [])
    u = {key: [x for r in results for x in r[key]] for key in ("read_ms", "post_ms", "miss_ms", "late")}
    behind = any(r["behind"] for r in results)
    busy_s = (sum(u["post_ms"]) + sum(u["miss_ms"])) / 1e3
    ingested = sum(r["obs"] for r in results)
    report = [
        ("cached_refresh_p50_ms", percentile(u["read_ms"], 50), "ms"),
        ("cached_refresh_p99_ms", percentile(u["read_ms"], 99), "ms"),
        ("miss_get_p50_ms", percentile(u["miss_ms"], 50), "ms"),
        ("ingest_post_p50_ms", percentile(u["post_ms"], 50), "ms"),
        ("ingest_obs_per_s", ingested / busy_s if busy_s > 0 else 0.0, "1/s"),
        ("dashboard_refreshes", len(u["read_ms"]), "count"),
        ("crawler_rounds", len(u["miss_ms"]), "count"),
        ("generator_late_p50_ms", percentile(u["late"], 50), "ms"),
        ("generator_late_p99_ms", percentile(u["late"], 99), "ms"),
        ("generator_behind", float(behind), "flag"),
        ("server_cache_hit_ratio", statistics.median(_hit_ratio(r["server"]) for r in results), "ratio"),
    ]
    return Outcome(
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(float(r["server"].get("peak_rss_mb", 0.0)) for r in results),
            "op_p50_ms": percentile(u["read_ms"], 50),
            "op_tail_ms": percentile(u["read_ms"], 99),
            "op2_p50_ms": percentile(u["miss_ms"], 50),
        },
        layers=layers,
        report=report,
        spans=spans,
    )


def _serve_one(run: Run, server: Server, trace, bodies: list[bytes], seconds: float) -> dict:
    """One serving window on ``server``; checks every answer, then stops it."""
    from repro.core import extract_contact_set

    try:
        reads, rounds = _serve_window(server, bodies, seconds)
    finally:
        report = server.stop()
    run.attempted += len(reads) * len(SERVE_READ_PATHS) + 2 * len(rounds)
    read_ms = []
    for due, sent, done, status, _ in reads:
        if 200 <= status < 300:
            read_ms.append(1e3 * (done - due))
        else:
            run.fail(f"dashboard refresh: a GET -> {status or 'no response'}")
            read_ms.append(FAILED_REQUEST_MS)
    post_ms, miss_ms = [], []
    for sent, posted, done, post_status, get_status, _ in rounds:
        for status, ms, what, into in (
            (post_status, 1e3 * (posted - sent), "ingest POST", post_ms),
            (get_status, 1e3 * (done - posted), "contacts GET", miss_ms),
        ):
            if 200 <= status < 300:
                into.append(ms)
            else:
                run.fail(f"{what} -> {status or 'no response'}")
                into.append(FAILED_REQUEST_MS)
    if "peak_rss_mb" not in report:
        run.fail("the server stopped without writing its report")
    if not rounds:
        run.fail("the crawler sent no round")
    else:
        committed = SERVE_INITIAL_SNAPSHOTS + len(rounds) * SERVE_ROUND_SNAPSHOTS
        expected = contacts_bytes(extract_contact_set(prefix(trace, committed), RADIUS), committed)
        if rounds[-1][5] != expected:
            run.fail("last /contacts body differs from encode(contacts_payload(...))")
    late = [1e3 * (sent - due) for due, sent, *_ in reads]
    behind = bool(late) and late[-1] > 1e3 * SERVE_BEHIND_S
    scheduled = int(seconds * SERVE_REFRESH_RATE)
    if behind or len(reads) < 0.95 * scheduled:
        behind = True
        print(
            f"hotspot_serve: generator fell behind (last refresh {late[-1] if late else 0:.0f} ms late, "
            f"{len(reads)} of {scheduled} refreshes sent)"
        )
    return {
        "reads": reads,
        "read_ms": read_ms,
        "post_ms": post_ms,
        "miss_ms": miss_ms,
        "late": late,
        "behind": behind,
        "obs": len(rounds) * SERVE_ROUND_SNAPSHOTS * SERVE_AVATARS,
        "server": report,
    }


def _hit_ratio(server_report: dict) -> float:
    stats = server_report.get("stats", {})
    queries = stats.get("queries", 0)
    return stats.get("cache_hits", 0) / queries if queries else 0.0


def _serve_layers(run: Run, traced: dict, untimed: dict) -> dict[str, float]:
    """Per-layer metrics of the traced serving window (server spans)."""
    from spans import Span

    report = traced["server"]
    recorder = SpanRecorder()
    for item in report.get("spans", []):
        span = Span(item["id"], item["name"], item["start"], item["parent"], item["request"])
        span.end = item["end"]
        recorder.spans.append(span)
    for key, value in report.get("counts", {}).items():
        recorder.counts[key] = value
    layers = layer_metrics(run, recorder, 1)
    # Transport: what the client saw minus what the server's handler took.
    handled = {
        s.request: s.duration for s in recorder.spans if s.name == "service.handle_get" and s.request
    }
    client = {rid: seconds for *_, gets in traced["reads"] for rid, seconds in gets}
    transport = sum(client[r] - handled[r] for r in client if r in handled)
    # Each GET is transport plus handler time, and the handler splits
    # into its layers and its own time (routing and the store-lock
    # wait); what a refresh spends outside its GETs is unaccounted.
    refresh_s = sum(done - sent for _, sent, done, *_ in traced["reads"])
    unaccounted = refresh_s - sum(client.values())
    return finish_layers(
        layers,
        **{
            "service.cache_hit_ratio": _hit_ratio(report),
            "http.transport_s": transport,
            "load.late_p99_ms": percentile(traced["late"], 99),
            "trace.overhead_ms": percentile(traced["read_ms"], 50) - percentile(untimed["read_ms"], 50),
            "trace.unaccounted_share": unaccounted / refresh_s if refresh_s > 0 else 0.0,
        },
    )


# -- backfill_process -------------------------------------------------------


def backfill_process(run: Run) -> Outcome:
    from repro.core import LiveAnalyzer

    def setup(index: int) -> Path:
        fresh_import(run, ["repro.core.live", "repro.trace"])
        trace = _walk(run.seed, BACKFILL_WALKERS, BACKFILL_SNAPSHOTS)
        return grow_store(trace, fresh_dir(run, f"backfill-{index}"), BACKFILL_SNAPSHOTS, BACKFILL_ROUNDS)

    setup_s, store = timed_setups(setup)
    workers = os.cpu_count() or 1
    observations = BACKFILL_WALKERS * BACKFILL_SNAPSHOTS

    def backfill(recorder: SpanRecorder | None, n: int):
        run.attempted += 3
        t0 = time.perf_counter()
        with span_of(recorder, "op.cold", f"b{n}"):
            live = LiveAnalyzer(store, backend="process", max_workers=workers)
        try:
            with span_of(recorder, "op.cold", f"b{n}"):
                contacts = live.contact_set(RADIUS)
                sessions = live.session_set()
            cold = time.perf_counter() - t0
            t0 = time.perf_counter()
            with span_of(recorder, "op.warm", f"w{n}"):
                warm_contacts = live.contact_set(BACKFILL_WARM_RADIUS)
            warm = time.perf_counter() - t0
        finally:
            live.close()
        with span_of(recorder, "op.serial", f"s{n}"):
            t0 = time.perf_counter()
            with LiveAnalyzer(store) as serial:
                s_contacts = serial.contact_set(RADIUS)
                s_sessions = serial.session_set()
                serial_s = time.perf_counter() - t0
                s_warm = serial.contact_set(BACKFILL_WARM_RADIUS)
        if contacts != s_contacts or sessions != s_sessions:
            run.fail(f"backfill {n}: process result differs from the serial result")
        if warm_contacts != s_warm:
            run.fail(f"backfill {n}: warm process result differs from the serial result")
        return cold, warm, serial_s

    def phase(recorder: SpanRecorder | None, first: int):
        samples = []
        deadline = time.perf_counter() + run.phase_seconds
        while not samples or time.perf_counter() < deadline:
            samples.append(backfill(recorder, first + len(samples)))
        return samples

    samples = phase(None, 0)
    cold = [s[0] for s in samples]
    warm = [s[1] for s in samples]
    serial = [s[2] for s in samples]
    layers, spans = {}, []
    if run.trace:
        def traced(recorder: SpanRecorder):
            t_samples = phase(recorder, len(samples))
            return [c for c, _, _ in t_samples], len(t_samples)

        layers, spans = traced_layers(run, cold, traced)
    report = [
        ("backfill_cold_s", statistics.median(cold), "s"),
        ("backfill_warm_s", statistics.median(warm), "s"),
        ("backfill_serial_s", statistics.median(serial), "s"),
        ("backfill_obs_per_s", observations / statistics.median(cold), "1/s"),
        ("backfills", len(samples), "count"),
        ("workers", workers, "count"),
    ]
    return Outcome(
        end_to_end={
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "op_p50_ms": 1e3 * statistics.median(cold),
            "op_tail_ms": 1e3 * percentile(cold, 90),
            "op2_p50_ms": 1e3 * statistics.median(warm),
        },
        layers=layers,
        report=report,
        spans=spans,
    )


WORKLOADS = {
    "paper_figures": paper_figures,
    "walk_crawl": walk_crawl,
    "hotspot_serve": hotspot_serve,
    "backfill_process": backfill_process,
}
