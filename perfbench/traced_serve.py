"""Start ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python3 perfbench/traced_serve.py --trace-out FILE -- serve ARGS``.
The spans of :mod:`layers` are wrapped around the program's entry points,
then ``repro``'s own command-line entry point runs ``serve ARGS`` unchanged.
``SIGUSR1`` forgets the spans recorded so far (the benchmark sends it once
the graph is loaded) and acknowledges by writing ``FILE`` with the suffix
``.reset``; ``SIGTERM`` shuts the server down, after which the merged span
totals are written to ``FILE`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from layers import install
from tracing import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("serve", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve[1:] if args.serve[:1] == ["--"] else args.serve

    tracer = Tracer()
    install(tracer)

    def reset(signum, frame):
        tracer.reset()
        args.trace_out.with_suffix(".reset").write_text("reset")

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGUSR1, reset)
    signal.signal(signal.SIGTERM, stop)
    from repro.cli import main as repro_main

    status = repro_main(serve_args)
    tracer.unwatch_gc()
    args.trace_out.write_text(json.dumps(tracer.snapshot()))
    return status


if __name__ == "__main__":
    sys.exit(main())
