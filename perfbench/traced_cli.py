"""Run `bregopt.cli.main` under the tracer and write the spans at exit.

Usage: traced_cli.py SPANS_NPZ CLI_ARGS...

The spans file also records the wall time of `cli.main`. The exit status
is the CLI's.
"""

import sys
import time

from bregopt import cli

import tracer as tracing


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    with tracer:
        entered = time.perf_counter()
        status = cli.main(cli_args)
        tracer.extra["wall_s"] = time.perf_counter() - entered
    tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
