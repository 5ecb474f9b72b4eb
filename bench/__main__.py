"""``python -m bench``: run the benchmark, or compare two of its outputs.

    python -m bench [--seed S] [--workload W ...] [--smoke] [--out FILE]
    python -m bench compare A.json B.json
    python -m bench --workload W --seed S --seconds T --trace 0|1   (driver)

With ``--trace`` the run is one workload and the last line of standard
output is the single JSON object the benchmark contract asks for; without
it every workload runs, untraced then traced, and tables are printed.
Exit status is 1 when any operation failed, 2 when the benchmark itself
could not run.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .workloads import WORKLOADS


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from .compare import main as compare_main
        return compare_main(argv[1:])

    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="RunConfig.seed of every config (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the untraced measuring window "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: one workload, print the result "
                             "object with the end-to-end (0) or per-layer "
                             "(1) metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every size / 16, two repetitions")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full report (and span files) here")
    args = parser.parse_args(argv)

    try:
        spec = harness.load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        if args.trace is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--trace takes exactly one --workload")
            # a traced run splits its window: half untraced repetitions (the
            # reference the traced pass is compared with), then the traced,
            # cProfile and A/B passes
            record = harness.run_workload(
                args.workload[0], args.seed,
                seconds / 2.0 if args.trace else seconds, trace=args.trace,
                probes=0 if args.trace else harness.SETUP_PROBES,
                smoke=args.smoke)
            for line in record["errors"]:
                print(f"ERROR {line}", file=sys.stderr)
            print(harness.driver_line(spec, record, args.trace))
            return 1 if record["failed"] else 0
        report = harness.run_all(args.workload or names, args.seed, seconds,
                                 args.smoke, args.out)
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    harness.print_report(spec, report)
    return 1 if any(r["failed"] for r in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
