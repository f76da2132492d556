"""One fresh interpreter of a workload run.

Role "setup" imports pentakin, builds the first round's inputs, answers the
untimed warm-up query and exits: it measures set-up time only.  Role
"main" does the same and then runs the closed loop: one query at a time,
each answer checked before the next query is sent.  The last line of
standard output is a JSON record that run.py reads.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before spawn")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    import pentakin.cli  # noqa: F401  (cli.import_s ends here)
    import_s = time.monotonic() - args.spawned
    import tracer as tracing
    import workloads

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    workdir = os.path.join(args.outdir, f"{args.workload}-{args.seed}-"
                                        f"{args.role}-{os.getpid()}")
    tracer = tracing.Tracer() if args.trace else None
    cli_totals = {"calls": {}, "self_s": {}, "dk_solutions": 0,
                  "dk_degree": 0, "samples_kept": 0, "samples_tried": 0}
    cli_import = []
    query_id = [None]

    def launch_cli(cli_args):
        """Run one CLI process; under tracing, through traced_cli.py."""
        env = dict(os.environ)
        if tracer is None:
            cmd = [sys.executable, "-s", "-m", "pentakin.cli"]
        else:
            cmd = [sys.executable, "-s",
                   os.path.join(bench_dir, "traced_cli.py")]
            env["PERFBENCH_SPANS"] = os.path.join(
                workdir, f"spans-{query_id[0]}.json")
            env["PERFBENCH_QUERY"] = str(query_id[0])
            env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
        r = subprocess.run(cmd + cli_args, capture_output=True, text=True,
                           env=env, cwd=workdir)
        return r.returncode, r.stdout, r.stderr

    wl = workloads.make(args.workload, args.seed, workdir, launch_cli)
    first_round = wl.round(0)
    warm = wl.warmup()
    if warm:
        raise SystemExit(f"warm-up answer is wrong: {warm}")
    setup_s = time.monotonic() - args.spawned
    record = {"role": args.role, "setup_s": setup_s, "import_s": import_s}
    if args.role == "setup":
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps(record))
        return

    if tracer is not None:
        tracing.install(tracer)
    queries = []
    errors = []
    loop_start = time.perf_counter()
    r = 0
    while True:
        for q in (first_round if r == 0 else wl.round(r)):
            query_id[0] = len(queries)
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.query = query_id[0]
            try:
                answer, exc = q.run(), None
            except Exception as e:  # a query that raises counts as failed
                answer, exc = None, e
            finally:
                if tracer is not None:
                    tracer.query = None
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - c0
            if exc is not None:
                status = "failed"
                errors.append(f"{q.name}: " + "".join(
                    traceback.format_exception_only(type(exc), exc)).strip())
            elif q.known_fault is not None and q.known_fault(answer):
                status = "failed"
            else:
                reason = q.check(answer)
                status = "ok" if reason is None else "wrong"
                if reason is not None:
                    errors.append(f"{q.name}: {reason}")
            queries.append((wall, cpu, status, q.name))
            spans_file = os.path.join(workdir, f"spans-{query_id[0]}.json")
            if tracer is not None and os.path.exists(spans_file):
                with open(spans_file) as fh:
                    child = json.load(fh)
                tracing.merge(cli_totals, child["totals"])
                cli_import.append(child["extra"]["import_s"])
                offset = len(tracer.spans)
                tracer.spans.extend(
                    (name, start, end, parent + offset if parent >= 0 else -1,
                     query) for name, start, end, parent, query
                    in child["spans"])
        r += 1
        # a traced run is exactly one round, so its counts repeat exactly
        if tracer is not None or time.perf_counter() - loop_start >= args.seconds:
            break

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.children_rss
                               else resource.RUSAGE_SELF)
    record.update(queries=queries, errors=errors, rounds=r,
                  peak_rss_kb=usage.ru_maxrss)
    if tracer is not None:
        tracing.merge(cli_totals, tracer.totals())
        record["totals"] = cli_totals
        record["cli_import_s"] = cli_import
        with open(os.path.join(args.outdir, f"trace-{args.workload}-"
                                            f"{args.seed}.json"), "w") as fh:
            json.dump({"totals": cli_totals, "spans": tracer.spans}, fh)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
