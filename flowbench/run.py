#!/usr/bin/env python3
"""End-to-end benchmark of the scflow design flow.

Usage, from the root of a source tree:

    python3 flowbench/run.py --workload signoff|simulate|serve --seed N \\
        --seconds S --trace 0|1
    python3 flowbench/run.py compare RESULT_A.json RESULT_B.json

The first form builds the flowbench program from ../src (CMake, into
.bench_build/flowbench unless CARGO_TARGET_DIR names another directory),
runs one workload and prints a human-readable report followed, as the last
line, by one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics.  The exit
code is 1 when the build or the benchmark program fails or any correctness check
failed (the JSON line is still printed then), and 2 when the sources are
missing.

Every run also stores its full record (provenance, named metrics, work
counters, fingerprint, self-time table) under <build>/results/.  The work
counters of a run are compared with those of any earlier run of the same
sources, workload, seed, lane count and trace mode in the same build
directory; a counter that moved is reported by name and counts as a
failed check.  The compare form refuses result sets from different hosts
or core counts.
"""

import argparse
import datetime
import fcntl
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("signoff", "simulate", "serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=2):
    print("flowbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "flowbench")


def source_rev():
    """Content hash of the sources the benchmark is built from."""
    h = hashlib.sha256()
    for top in ("src", "flowbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def build(bdir):
    """Configures and builds the flowbench program; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir])
        steps.append(["cmake", "--build", bdir, "-j", jobs])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail), 1)
    return os.path.join(bdir, "flowbench")


def compiler_id(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], capture_output=True, text=True,
                                         timeout=30).stdout
                    return out.splitlines()[0] if out else cxx
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def host_id():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%s (%s)" % (platform.node(), model)


def metric(value, unit):
    return {"value": value, "unit": unit}


def check_counters(bdir, key, counters):
    """Compares this run's work counters with the stored ones for @p key."""
    path = os.path.join(bdir, "counters", key + ".json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counters, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        stored = json.load(f)
    return sorted(k for k in set(stored) | set(counters) if stored.get(k) != counters.get(k))


def declared_metrics(kind):
    """Metric names BENCHMARK.json declares for @p kind, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return {m["name"] for m in json.load(f)[kind]}


def report(rec, metrics):
    print("flowbench %s  seed %d  lanes %d  trace %d" % (
        rec["workload"], rec["seed"], rec["lanes"], rec["trace"]))
    p = rec["provenance"]
    print("rev %s  host %s  nproc %d  compiler %s" % (
        p["rev"], p["host"], p["nproc"], p["compiler"]))
    for name, m in sorted(rec["named"].items()):
        print("  %-30s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, m in metrics.items():
        print("  %-30s %16.6g %s" % (name, m["value"], m["unit"]))
    print("  %-30s %16.6g failed/attempted (%d of %d checks failed)" % (
        "fail_rate", rec["failed"] / max(1, rec["attempted"]), rec["failed"], rec["attempted"]))
    print("  simulated-statistics fingerprint %s over %d counters" % (
        rec["fingerprint"], len(rec["counters"])))
    for f in rec["failures"]:
        print("  FAILED: " + f)
    if rec.get("self_time_table"):
        print(rec["self_time_table"], end="")


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no scflow sources at %s; run from the root of a source tree" % ROOT)
    bdir = build_dir()
    binary = build(bdir)
    lanes = max(1, min(4, os.cpu_count() or 1))
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S.%f")
    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    raw_path = os.path.join(out_dir, "%s-seed%d-trace%d-%s.raw.json" % (
        args.workload, args.seed, args.trace, stamp))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--lanes", str(lanes),
           "--trace", str(args.trace), "--out", raw_path]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("flowbench program exceeded %d s" % RUN_TIMEOUT_S, 1)
    if rc != 0:
        fail("flowbench program exited with %d" % rc, 1)
    with open(raw_path) as f:
        rec = json.load(f)
    os.remove(raw_path)

    rev = source_rev()
    rec["provenance"] = {
        "rev": rev, "host": host_id(), "nproc": os.cpu_count(), "lanes": lanes,
        "compiler": compiler_id(bdir), "time": stamp,
    }
    key = "%s-%s-seed%d-lanes%d-trace%d" % (rev, args.workload, args.seed, lanes, args.trace)
    moved = check_counters(bdir, key, rec["counters"])
    for name in moved:
        rec["attempted"] += 1
        rec["failed"] += 1
        rec["failures"].append("work counter moved between runs: " + name)
    rec["attempted"] += 1  # the cross-run counter comparison itself

    if args.trace:
        metrics = {k: metric(v["value"], v["unit"]) for k, v in sorted(rec["layer"].items())}
    else:
        # Wall time per unit is reported (unit_s and the named metrics) but
        # is not an end-to-end metric: with other tenants on the host, the
        # 4-lane workloads' wall time swings far more than any bound allows.
        rec["named"]["unit_s"] = metric(statistics.median(rec["unit_s"]), "s")
        metrics = {
            "setup_s": metric(statistics.median(rec["setup_s"]), "s"),
            "unit_cpu_s": metric(statistics.median(rec["unit_cpu_s"]), "s"),
            "peak_rss_mb": metric(rec["peak_rss_mb"], "MB"),
        }
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared is not None:
        rec["attempted"] += 1
        if declared != set(metrics):
            rec["failed"] += 1
            rec["failures"].append("metrics differ from BENCHMARK.json: %s" % sorted(
                declared ^ set(metrics)))
    rec["metrics"] = metrics
    with open(os.path.join(out_dir, "%s-seed%d-trace%d-%s.json" % (
            args.workload, args.seed, args.trace, stamp)), "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
    report(rec, metrics)
    print(json.dumps({"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    if rec["failed"]:
        sys.exit(1)


def compare(paths):
    """Prints metric and counter differences of two stored result sets."""
    recs = []
    for p in paths:
        with open(p) as f:
            recs.append(json.load(f))
    a, b = recs
    pa, pb = a["provenance"], b["provenance"]
    for field in ("host", "nproc"):
        if pa[field] != pb[field]:
            fail("refusing to compare results from different %s: %r vs %r" % (
                field, pa[field], pb[field]), 3)
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        fail("refusing to compare different workloads or trace modes", 3)
    print("A: rev %s lanes %s   B: rev %s lanes %s" % (
        pa["rev"], pa["lanes"], pb["rev"], pb["lanes"]))
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va = a["metrics"].get(name, {}).get("value")
        vb = b["metrics"].get(name, {}).get("value")
        delta = "" if not va or vb is None else "%+.1f%%" % (100.0 * (vb - va) / va)
        print("  %-40s %14s %14s %8s" % (name, va, vb, delta))
    moved = sorted(k for k in set(a["counters"]) | set(b["counters"])
                   if a["counters"].get(k) != b["counters"].get(k))
    same_input = a["seed"] == b["seed"] and pa["lanes"] == pb["lanes"]
    print("work counters: %d moved%s" % (len(moved), "" if same_input else
                                          " (different seed or lanes)"))
    for k in moved:
        print("  %-60s %s -> %s" % (k, a["counters"].get(k), b["counters"].get(k)))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare RESULT_A.json RESULT_B.json")
        compare(sys.argv[2:])
        return
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(ap.parse_args())


if __name__ == "__main__":
    main()
