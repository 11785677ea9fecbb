"""One benchmark pass, in the fresh interpreter the pass is timed in.

    python worker.py SPEC.json RESULT.json

The first thing the interpreter does is import gravatom.cli; it then prints
"ready", which ends the parent's set-up timer.  SPEC.json holds the pass's
argv lists and whether to trace.  Every command goes through
gravatom.cli.main, one after another; batch_s is the wall time from the first
command's start to the last one's end.  An exception escaping main is what a
CLI user would see as a traceback: it is recorded and the pass goes on.
RESULT.json gets exit codes, exceptions, batch_s, the peak resident memory
and, when traced, the spans.
"""

import sys
import time


def main() -> int:
    import gravatom.cli as cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    # everything below is after the set-up mark on purpose
    import json
    import resource
    import traceback

    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    run = cli.main
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.wrap(cli.main, "cli.main")
    results = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        try:
            results.append({"code": run(argv), "exception": None})
        except Exception:  # a traceback for a CLI user; recorded and checked
            results.append({"code": None, "exception": traceback.format_exc()})
    batch_s = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out = {"batch_s": batch_s, "peak_rss_mb": peak_rss_mb, "results": results}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
