"""Benchmark of pentakin's four query paths.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`.  With --trace 0 the run prints the end-to-end metrics, with
--trace 1 the per-layer metrics of BENCHMARK.json.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_INTERPRETERS = 3        # setup_s is the median of this many
RUN_LIMIT_S = 170             # a whole run must end within 180 s


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def spawn(args, role, outdir, env, deadline):
    """Run one worker interpreter in its own process group, so that on a
    timeout the CLI processes it started are stopped with it."""
    spawned = time.monotonic()
    cmd = [sys.executable, "-s", os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--spawned", repr(spawned), "--outdir", outdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{role} interpreter ran past the {RUN_LIMIT_S} s limit")
    if proc.returncode != 0 or not out.strip():
        fail(f"{role} interpreter exited {proc.returncode}: {err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def versions():
    from importlib.metadata import version
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "PYTHONHASHSEED": "0",
            **{pkg: version(pkg) for pkg in ("sympy", "numpy", "mpmath")}}


def end_to_end(main, setups):
    walls = [w for w, _, _, _ in main["queries"]]
    ok = sum(1 for q in main["queries"] if q[2] == "ok")
    # a failed query misses any latency limit: it counts as infinitely slow
    lat = [w if s != "failed" else float("inf")
           for w, _, s, _ in main["queries"]]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "queries_per_s": ok / sum(walls),
        "latency_p50_s": statistics.median(lat),
        "cpu_per_query_s": sum(c for _, c, _, _ in main["queries"])
        / len(main["queries"]),
        "peak_rss_mb": main["peak_rss_kb"] / 1024,
    }


def per_layer(main, names):
    t = main["totals"]
    derived = {
        "dirkin.real_solutions_per_degree":
            t["dk_solutions"] / t["dk_degree"] if t["dk_degree"] else 0.0,
        "selfmotion.trace.samples_kept_ratio":
            t["samples_kept"] / t["samples_tried"] if t["samples_tried"]
            else 0.0,
        "cli.import_s": statistics.median(main["cli_import_s"])
            if main["cli_import_s"] else main["import_s"],
        "traced.latency_p50_s": statistics.median(
            w for w, _, _, _ in main["queries"]),
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = t["calls"].get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = t["self_s"].get(name[:-len(".self_s")], 0.0)
        else:
            fail(f"no source for per-layer metric {name}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "pentakin", "__init__.py")):
        fail(f"no pentakin sources under {ROOT}/src: run from a checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    sys.path.insert(0, HERE)
    import selftest
    broken = selftest.run()
    if broken:
        fail("checker self-test failed: " + "; ".join(broken), 3)

    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PENTAKIN_LOG", None)

    setups = []
    if not args.trace:
        for _ in range(SETUP_INTERPRETERS - 1):
            setups.append(spawn(args, "setup", outdir, env, deadline))
    main_rec = spawn(args, "main", outdir, env, deadline)
    setups.append(main_rec)

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    values = (per_layer(main_rec, units) if args.trace
              else end_to_end(main_rec, setups))
    statuses = [q[2] for q in main_rec["queries"]]
    result = {
        "correct": "wrong" not in statuses,
        "attempted": len(statuses),
        "failed": statuses.count("failed"),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    env_info = versions()
    with open(os.path.join(outdir, f"result-{args.workload}-{args.seed}-"
                                   f"trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env_info, "result": result,
                   "setup_s": [s["setup_s"] for s in setups],
                   "rounds": main_rec["rounds"],
                   "queries": main_rec["queries"],
                   "errors": main_rec["errors"]}, fh, indent=1)
    for err in main_rec["errors"]:
        print(f"perfbench: {err}", file=sys.stderr)
    print(json.dumps({"env": env_info, "rounds": main_rec["rounds"]}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
