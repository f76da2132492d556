"""`python -m pentakin.cli` with the layer spans of tracer.py installed.

Used for the traced run of cli-oneshot.  The environment names the query,
the file that receives the spans, and the parent's time.monotonic() just
before the spawn, from which cli.import_s is measured.
"""

import os
import sys
import time

import pentakin.cli

import tracer as tracing

IMPORT_S = time.monotonic() - float(os.environ["PERFBENCH_SPAWNED"])


def main():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.query = int(os.environ["PERFBENCH_QUERY"])
    try:
        code = pentakin.cli.run_command(sys.argv[1:])
    finally:
        tracer.query = None
        tracer.dump(os.environ["PERFBENCH_SPANS"], {"import_s": IMPORT_S})
    sys.exit(code)


if __name__ == "__main__":
    main()
