"""The ``remote_stream`` workload's server: ``EngineServer(Engine(workers=1))``.

    python3 perfbench/server.py --catalog DIR [--spans-dir DIR]

Prints ``{"port": ...}`` once it listens, serves until its standard input
closes, then prints ``{"peak_rss_kb": ...}``: the summed VmHWM of this process
and its shard worker, read before they shut down.  With ``--spans-dir`` the
layer wrappers are installed before the engine forks its shard worker, so the
worker inherits them; each process writes its spans there when it exits.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from layers import SpanRecorder, install  # noqa: E402
from workloads import proc_status_kb  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--catalog", required=True)
    parser.add_argument("--spans-dir")
    args = parser.parse_args()

    from repro import Engine
    from repro.net import EngineServer

    recorder = None
    if args.spans_dir:
        recorder = SpanRecorder()
        install(recorder, spans_dir=args.spans_dir)
    # fork, so that the shard worker inherits the wrappers
    engine = Engine(catalog=args.catalog, workers=1, start_method="fork")
    try:
        server = EngineServer(engine).start()
        try:
            print(json.dumps({"port": server.address[1]}), flush=True)
            sys.stdin.read()
            peak_kb = proc_status_kb("self", "VmHWM") + sum(
                proc_status_kb(child.pid, "VmHWM") for child in multiprocessing.active_children()
            )
        finally:
            server.stop()
    finally:
        engine.close()
    if recorder is not None:
        recorder.dump(os.path.join(args.spans_dir, f"spans-{os.getpid()}.json"))
    print(json.dumps({"peak_rss_kb": peak_kb}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
