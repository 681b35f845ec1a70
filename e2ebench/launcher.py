"""Traced server child for the wire workload.

Usage: ``python launcher.py SPANS_OUT [repro.net arguments ...]``

Installs the benchmark's span wrappers in this process, then runs the
``repro.net`` command-line entry point unchanged.  When the server
exits (SIGTERM drains it) the recorded spans are written to
``SPANS_OUT`` for the harness to attribute to client requests.
"""

import sys

import spans
from repro.net.__main__ import main


def run(argv) -> int:
    out, net_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return main(net_args)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    raise SystemExit(run(sys.argv[1:]))
