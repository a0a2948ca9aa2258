"""Run one equitree CLI command with span tracing, for traced CLI runs.

usage: python3 bench/cli_child.py SPANS_FILE ARG...

Behaves like ``python3 -m equitree.cli ARG...`` (same stdout, stderr and
exit code) and also writes the command's spans to SPANS_FILE, including an
``import`` span around ``import equitree.cli``.
"""

import sys
import time

import tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import equitree.cli
    end = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.spans.append(["import", start, end, -1, -1, True, 0])
    tracer.install()
    try:
        code = equitree.cli.main(argv)
    except SystemExit as exc:  # argparse rejects flags by exiting
        code = exc.code
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracing.write_spans(spans_file, tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
