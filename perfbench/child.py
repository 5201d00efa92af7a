"""Child processes of the benchmark.

    python3 perfbench/child.py probe FILE...
        import skewlab's CLI and every library module, parse the input
        files as JSON, then print the clock (time.perf_counter) and exit;
        the parent subtracts its launch time to get the set-up time.

    python3 perfbench/child.py trace SPANS_OUT ARG...
        run ``skewlab ARG...`` with every public function traced, and
        write the spans and counts to SPANS_OUT; exits with the CLI's code.

Untraced command runs do not come through here: the parent launches
``python3 -m skewlab.cli`` directly.
"""

import json
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    if mode == "probe":
        import skewlab.cli  # noqa: F401  (the import is what is timed)

        for path in sys.argv[2:]:
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        print(repr(time.perf_counter()))
        return 0
    if mode == "trace":
        from tracing import Tracer

        import skewlab.cli

        tracer = Tracer()
        tracer.install()
        try:
            return skewlab.cli.run_command(sys.argv[3:])
        finally:
            tracer.write(sys.argv[2])
    print("unknown mode %r" % mode, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
