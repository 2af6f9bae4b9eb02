"""Traced CLI launcher: `python3 clichild.py TRACE_FILE CLI_ARGS...`.

Times the import of fracemden, installs the tracer, runs the CLI with
CLI_ARGS and writes the spans to TRACE_FILE before exiting with the CLI's
exit code.  Untraced benchmark runs start the CLI without this file.
"""

import sys
import time

import tracing


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import fracemden.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return fracemden.cli.main(argv)
    finally:
        state = tracer.state()
        state["import_s"] = import_s
        tracing.dump(trace_file, state)


if __name__ == "__main__":
    sys.exit(main())
