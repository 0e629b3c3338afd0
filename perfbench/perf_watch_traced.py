"""``repro`` CLI with the layer wrappers installed, for the traced live run.

    python perfbench/perf_watch_traced.py TRACE_OUT watch --input - ...

Runs ``repro.cli.main`` on the remaining arguments exactly as
``python -m repro`` would, then writes the span summary to TRACE_OUT.
"""

from __future__ import annotations

import json
import sys

from perf_trace import Tracer, install, install_cli


def main() -> int:
    out = sys.argv[1]
    tracer = Tracer()
    install(tracer)
    install_cli(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(tracer.summary(), handle)


if __name__ == "__main__":
    raise SystemExit(main())
