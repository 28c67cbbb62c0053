"""Child process of the benchmark: one run of the real steergap CLI.

    python3 perfbench/launch.py RECORD TRACE RUN_ID [CLI ARGS...]

Imports ``steergap.cli``, wraps the layer functions when TRACE is 1, notes
the monotonic time at which ``cli.main`` is entered, runs it and exits with
its code. RECORD receives that time and, for a traced run, the spans and
counters, as JSON. The parent compares the entry time with its own spawn
time (CLOCK_MONOTONIC is shared by all processes) to get the set-up time.
"""

import json
import sys
import time


def main() -> int:
    record_path, trace, run_id, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    from steergap import cli

    recorder = None
    if trace:
        import tracer

        recorder = tracer.install(run_id)
    record = {"main_entered": time.monotonic()}
    try:
        if recorder is None:
            return cli.main(argv)
        return recorder.wrap(tracer.ROOT_SPAN, cli.main)(argv)
    finally:
        if recorder is not None:
            record["trace"] = recorder.to_json()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
