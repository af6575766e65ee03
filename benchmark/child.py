"""Run one `mb-rh` subcommand the way the console script does, timed.

    python3 benchmark/child.py --timing OUT.json [--trace SPANS.json]
        [--setup-only] -- solve-rh --scenario ... --out ...

The parent reads the monotonic clock before it starts this process; this
process records the clock when the subcommand function is entered and
when it returns, so the parent can split the run into set-up (interpreter
start plus imports) and solve.  With --setup-only the subcommand returns
at once after entry, which samples set-up alone.  The exit code is the
one `mb-rh` would give.
"""

import argparse
import json
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--timing", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    from mbrh import cli

    recorder, stamp = None, {}
    if opts.trace:
        from spans import TARGETS, Recorder, install
        recorder = Recorder()
        stamp["replaced"] = install(recorder, TARGETS)

    name = "cmd_" + argv[0].replace("-", "_")
    command = getattr(cli, name)

    def timed(args):
        stamp["enter"] = time.monotonic()
        try:
            return 0 if opts.setup_only else command(args)
        finally:
            stamp["exit"] = time.monotonic()

    setattr(cli, name, timed)
    rc = cli.run_command(argv)
    stamp.update(rc=rc, pool_width=cli.thread_width())
    with open(opts.timing, "w") as fh:
        json.dump(stamp, fh)
    if recorder is not None:
        recorder.write(opts.trace)
    sys.exit(rc)


if __name__ == "__main__":
    main()
