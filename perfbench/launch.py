"""Run one `reconf` command in this process, as `python -m reconf.cli` would.

usage: launch.py RECORD_JSON plain|trace RECONF_ARGS...

plain  records only the moment the first hour's model build starts, which
       ends set-up; the wrapper that notes it removes itself on first use.
trace  also wraps every layer boundary (spans.install) and keeps the spans.

RECORD_JSON receives {"first_hour": t or null, "peak_rss_kb": n,
"spans": [...]} once the command returns; t is a time.perf_counter
reading and n the VmHWM of /proc/self/status. VmHWM belongs to this
process's own address space; the rusage maximum a parent reads from
wait4 would also count the parent's memory that the child held between
fork and exec. The exit code is the command's own.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from reconf import cli, optimize

    tracer = None
    if mode == "trace":
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)
    record = {"first_hour": None, "peak_rss_kb": None, "spans": []}
    build = optimize.build_hour_model

    def first_build(*args, **kwargs):
        record["first_hour"] = time.perf_counter()
        optimize.build_hour_model = build
        return build(*args, **kwargs)

    optimize.build_hour_model = first_build
    try:
        return cli.main(argv)
    finally:
        record["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
