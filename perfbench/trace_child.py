"""Traced stand-in for ``python -m laguerre_ladder ARGS...``.

Usage: trace_child.py TRACE_JSON ARGS...

Loads the tracer into this fresh interpreter before ``cli.main`` runs, makes
the call as one op, and writes the spans and counts to TRACE_JSON.  Stdout and
the exit code are those of the plain command.
"""

import sys

from tracer import Tracer

from laguerre_ladder import cli


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return cli.main(argv)
    finally:
        tracer.end_op()
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
