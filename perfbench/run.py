"""The repository benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

``NAME`` is one of ``paper_figures``, ``walk_crawl``, ``hotspot_serve``
and ``backfill_process``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics
with ``--trace 1`` (names and units as in ``BENCHMARK.json``).  The
lines before it give the same numbers under the names users know them
by, and where the run's spans were written.

``--workload all`` runs every workload, each in its own fresh process,
so peak memory and warm caches never carry over between workloads.

Run it from the root of a checkout: it imports the package from
``src/`` and keeps its scratch stores and span files under
``.perfbench/``.  It exits with status 2, printing no result, when the
checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

# Only the standard library is imported at module level: process-pool
# workers started with ``spawn`` re-run this module's top level, and
# must not pay for the benchmark's own imports.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"


def _run_one(args: argparse.Namespace) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(seed=args.seed, seconds=float(args.seconds), trace=bool(args.trace), work=work)
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        _stop_helpers()
        shutil.rmtree(work, ignore_errors=True)
    values = {**outcome.end_to_end, **outcome.layers}
    for name, value, unit in outcome.report:
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for problem in run.problems:
        print(f"{args.workload}: FAILED {problem}")
    if args.trace:
        spans_path = OUT / "spans" / f"{tag}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"layers": outcome.layers, "spans": outcome.spans}))
        print(f"{args.workload}: {len(outcome.spans)} spans written to {spans_path.relative_to(ROOT)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def _stop_helpers() -> None:
    """Stop every helper process the run left behind, and wait for each.

    Closing a ``spawn`` process pool joins its workers, but not the
    resource tracker ``multiprocessing`` started for them: that process
    lives until its parent exits, and then ends on its own some time
    later.  Stop it here so nothing the run started outlives the run.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in a fresh interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
