"""Run one ``tradenet`` CLI command with tracing and write its spans as JSON.

    PYTHONPATH=src python bench/traced_cli.py TRACE.json rank --countries ...

Everything after the trace path is passed to ``tradenet.cli.main``; the exit
code is the CLI's.
"""

import json
import sys
from pathlib import Path

import tracing
import tradenet.cli


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        return tradenet.cli.main(argv)
    finally:
        trace_path.write_text(json.dumps(tracer.take()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
