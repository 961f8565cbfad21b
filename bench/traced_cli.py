"""Run the hmerge command line with layer spans recorded.

    python3 bench/traced_cli.py SPANS.json OP_ID -- <hmerge arguments>

Behaves like `python3 -m hmerge.cli <hmerge arguments>` (same output, same
exit code) and writes the spans of the call to SPANS.json. The traced run of
improve-bulk starts this instead of the plain CLI.
"""

import sys

import spans as spanlib


def main() -> int:
    out, op, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json OP_ID -- ARGS...")
    import hmerge.cli

    tracer = spanlib.Tracer()
    tracer.op = int(op)
    undo = spanlib.install(tracer)
    try:
        return hmerge.cli.main(argv)
    finally:
        sys.stdout.flush()
        spanlib.uninstall(undo)
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
