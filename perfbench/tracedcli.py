"""Run the eqaudit command line with the benchmark's tracer installed.

    PERFBENCH_TRACE_DIR=DIR PERFBENCH_REQUEST=ID python perfbench/tracedcli.py ARGS...

behaves like ``python -m eqaudit ARGS...`` and, on exit, leaves the spans
of this process and of every pool worker it forked in DIR, one
``spans-<pid>.json`` file per process, each span tagged with request ID.
"""

import os
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    tracer = Tracer(
        Path(os.environ["PERFBENCH_TRACE_DIR"]), int(os.environ["PERFBENCH_REQUEST"])
    )
    tracer.install()
    tracer.flush_at_worker_exit()
    from eqaudit import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.write(tracer.directory / f"spans-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
