"""One qwsearch CLI process, as the benchmark starts it.

    python3 child.py STAMP_FILE TRACE_FILE|- [--setup-only] -- CLI_ARGS...

Does what the installed ``qwsearch`` console script does (import
``qwsearch.cli`` and call ``main``), and first writes to STAMP_FILE the
``time.monotonic()`` reading at which ``main`` is entered, so the parent can
split set-up from the run.  With a TRACE_FILE other than ``-`` every layer is
wrapped by ``tracer.install()`` and the spans are written there at exit.
"""

import sys
import time


def run(argv: list[str]) -> int:
    stamp_path, trace_path, *rest = argv
    split = rest.index("--")
    options, cli_args = rest[:split], rest[split + 1:]
    recorder = None
    if trace_path != "-":
        import tracer

        recorder = tracer.install()
    from qwsearch import cli

    entered = time.monotonic()
    with open(stamp_path, "w", encoding="utf-8") as fh:
        fh.write(repr(entered))
    if "--setup-only" in options:
        return 0
    try:
        return cli.main(cli_args)
    finally:
        if recorder is not None:
            recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
