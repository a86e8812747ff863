"""One benchmark client request: a single `sforge` CLI run in this process.

    python3 child.py --src DIR --marks FILE [--trace] -- <sforge arguments>

Runs ``sforge.cli.main`` on the arguments after ``--`` exactly as the
``sforge`` command does, so the report on stdout and the exit code are
the CLI's own.  It imports the package from DIR and refuses to run any
other copy.  On exit it writes to FILE, as JSON, the CLOCK_MONOTONIC
time at which the command handler started (the first check), and with
--trace the per-layer counts and self times.
"""

import json
import os
import sys
import time


def main(argv):
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    src = os.path.abspath(opts[opts.index("--src") + 1])
    marks_path = opts[opts.index("--marks") + 1]
    traced = "--trace" in opts

    import sforge.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("benchmark child: imported sforge from %s, not from %s"
              % (cli.__file__, src), file=sys.stderr)
        return 3

    marks = {}
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        marks["leftover_bindings"] = tracer.install()

    handler = cli._HANDLERS[cli_args[0]]

    def timed_handler(cfg, args):
        marks["first_check"] = time.monotonic()
        return handler(cfg, args)

    cli._HANDLERS[cli_args[0]] = timed_handler
    code = cli.main(cli_args)
    sys.stdout.flush()
    if tracer is not None:
        marks["trace"] = tracer.snapshot()
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
