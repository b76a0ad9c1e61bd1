"""Run ``slmob serve --ingest`` over one store, as the benchmark deploys it.

    python3 perfbench/serve.py --store DIR --result FILE --trace 0|1

The untimed and the traced serving windows both start the service
through this launcher, so they differ only in the layer spans
``--trace 1`` installs.  The server stops on SIGINT, as Ctrl-C stops
``slmob serve``; the launcher then writes ``FILE``: its peak resident
memory, the service's counters and, when traced, every span.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A process started in the background of a non-interactive shell
    # inherits SIGINT ignored; the benchmark stops the server with
    # SIGINT, so take it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    from repro.cli import main as slmob
    from repro.service import server

    from spans import SpanRecorder, instrument

    recorder = SpanRecorder()
    if args.trace:
        instrument(recorder)
    services = []
    original_init = server.QueryService.__init__

    def remember(self, *a, **k):
        original_init(self, *a, **k)
        services.append(self)

    server.QueryService.__init__ = remember
    code = slmob(["serve", f"crawl={args.store}", "--port", "0", "--ingest", "--quiet"])
    result = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": asdict(services[0].stats) if services else {},
        "counts": dict(recorder.counts),
        "spans": [s.as_dict() for s in recorder.spans],
    }
    Path(args.result).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
