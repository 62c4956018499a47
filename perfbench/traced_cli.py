"""Run one nearband CLI command with tracing on, then write the trace.

Usage: python traced_cli.py TRACE_JSON SUBCOMMAND [ARG...]

Behaves as ``python -m nearband.cli SUBCOMMAND [ARG...]`` (same output
files, stdout and exit code) and writes the per-function trace summary
of trace_hooks to TRACE_JSON.
"""

import json
import sys

from trace_hooks import Tracer, finish, install


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    originals = install(tracer)
    cli = sys.modules["nearband.cli"]
    try:
        return cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(finish(tracer, originals), fh)


if __name__ == "__main__":
    raise SystemExit(main())
