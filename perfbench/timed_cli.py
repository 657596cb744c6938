"""Run the ramseykit CLI in this fresh process and report how long it took.

    python3 perfbench/timed_cli.py [--import-only] [CLI ARGS...]

The CLI's report goes to standard output as usual.  Standard error gets one
line of JSON, also when the CLI raises, with ``seconds``, from just before
``import ramseykit.cli`` to the end of ``main`` (or of the import alone with
``--import-only``) less the time taken by host-speed samples, and
``kernel``, the host-speed samples taken just before, during and just after
in this same process, so that the interval can be scaled by the speed of
the CPU it ran on.
"""

import sys
from time import perf_counter

# hostspeed imports nothing that ramseykit imports, so the timed import
# below starts from the same modules a plain `python -m ramseykit.cli` does
from hostspeed import HostSpeed


def main() -> int:
    import_only = sys.argv[1:2] == ["--import-only"]
    code = None
    try:
        with HostSpeed() as speed:
            start = perf_counter()
            try:
                from ramseykit.cli import main as cli_main

                code = 0 if import_only else cli_main(sys.argv[1:])
                sys.stdout.flush()
            finally:
                end = perf_counter()
    finally:
        import json

        seconds = end - start - speed.paused(start, end)
        timing = {"seconds": seconds, "code": code, "kernel": [k for _, k in speed.samples]}
        print(json.dumps(timing), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
