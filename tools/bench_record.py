#!/usr/bin/env python3
"""Runs one perfbench workload and appends its record to BENCH_<workload>.json.

    python3 tools/bench_record.py --workload <serve_point|serve_bulk|offline_build>
                                  --seed <n> --seconds <s> [--trace 0|1]
                                  [--checkout DIR]
    python3 tools/bench_record.py --show <workload|inference>
    python3 tools/bench_record.py --inference BINARY --checkout DIR

The first form runs `python3 perfbench/run.py` in the checkout DIR (default:
this repository) and appends {"meta": ..., "notes": [...], "result": ...}
to BENCH_<workload>.json at this repository's root: "meta" is perfbench's
meta line (git sha, seed, dispatch, ...), "notes" its report lines (among
them the set-up process CPU beside setup_s), "result" its final JSON line.
Records written before notes were kept have no "notes". The file
is a JSON list, so a record's index never changes once written; CHANGES.md
cites records by index. A checkout whose tracked code differs from its HEAD
is refused, so every record's sha names the code that ran. perfbench builds
into the checkout's own .bench_build/ (or $CARGO_TARGET_DIR).

The second form prints one line per record of a workload: index, sha, seed,
seconds, trace, correctness and the end-to-end metrics; for "inference",
one line per record and benchmark with its median time per item.

The third form runs bench_micro_inference built from the checkout DIR with
--benchmark_out over the fixture benchmarks (INFERENCE_FILTER), each run
INFERENCE_MIN_TIME s and INFERENCE_REPETITIONS times, so every record is
taken with the same settings, and appends {"meta": ..., "result": <its
JSON>} to BENCH_inference.json, where "meta" holds DIR's git sha, the
binary's name, those settings and T3_FORCE_SCALAR. The same clean-checkout
rule applies.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("serve_point", "serve_bulk", "offline_build")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INFERENCE_FILTER = ("BM_CompiledBatchFixture|BM_OneRowScanFixture|"
                    "BM_BuildFixture|BM_LoadFixture")
INFERENCE_MIN_TIME = 0.2
INFERENCE_REPETITIONS = 5


def fail(message):
    print("bench_record: " + message, file=sys.stderr)
    sys.exit(2)


def bench_path(workload):
    return os.path.join(ROOT, "BENCH_%s.json" % workload)


def load_records(workload):
    path = bench_path(workload)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        records = json.load(f)
    if not isinstance(records, list):
        fail("%s is not a JSON list" % path)
    return records


def save_records(workload, records):
    path = bench_path(workload)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(records, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def check_clean(checkout):
    # Records and notes may change while pairs run; code may not.
    diff = subprocess.run(
        ["git", "-C", checkout, "diff", "--quiet", "HEAD", "--", ".",
         ":(exclude)BENCH_*.json", ":(exclude)*.md"])
    if diff.returncode != 0:
        fail("%s has uncommitted code changes; commit them so the record's "
             "sha names the code that ran" % checkout)


def run_inference(args):
    checkout = os.path.abspath(args.checkout or ROOT)
    check_clean(checkout)
    sha = subprocess.run(["git", "-C", checkout, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "benchmark.json")
        command = [args.inference, "--benchmark_filter=" + INFERENCE_FILTER,
                   "--benchmark_min_time=%g" % INFERENCE_MIN_TIME,
                   "--benchmark_repetitions=%d" % INFERENCE_REPETITIONS,
                   "--benchmark_out=" + out, "--benchmark_out_format=json"]
        completed = subprocess.run(command, stdout=subprocess.DEVNULL)
        if completed.returncode != 0 or not os.path.exists(out):
            fail("%s exited %d" % (args.inference, completed.returncode))
        with open(out) as f:
            result = json.load(f)
    meta = {"git_sha": sha, "binary": os.path.basename(args.inference),
            "filter": INFERENCE_FILTER, "min_time": INFERENCE_MIN_TIME,
            "repetitions": INFERENCE_REPETITIONS,
            "force_scalar": os.environ.get("T3_FORCE_SCALAR") == "1"}
    records = load_records("inference")
    records.append({"meta": meta, "result": result})
    save_records("inference", records)
    for line in format_inference(len(records) - 1, records[-1]):
        print(line)


def format_inference(index, record):
    meta = record["meta"]
    for bench in record["result"].get("benchmarks", []):
        if bench.get("aggregate_name") != "median":
            continue
        if bench.get("items_per_second"):
            time = "%.4g ns/item" % (1e9 / bench["items_per_second"])
        else:
            time = "%.4g %s" % (bench["real_time"], bench["time_unit"])
        yield "%d %s force_scalar=%s %s %s" % (
            index, meta["git_sha"][:8], meta["force_scalar"],
            bench["run_name"], time)


def run_once(args):
    checkout = os.path.abspath(args.checkout or ROOT)
    check_clean(checkout)
    command = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               repr(args.seconds), "--trace", args.trace]
    completed = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                               text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stdout)
        fail("perfbench exited %d" % completed.returncode)
    meta = None
    notes = []
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
        else:
            notes.append(line)
    if meta is None:
        fail("no meta line in perfbench's output")
    result = json.loads(lines[-1])
    records = load_records(args.workload)
    records.append({"meta": meta, "notes": notes, "result": result})
    save_records(args.workload, records)
    print(format_record(len(records) - 1, records[-1]))


def format_record(index, record):
    meta = record["meta"]
    result = record["result"]
    metrics = " ".join(
        "%s=%.6g" % (name, value["value"])
        for name, value in sorted(result.get("metrics", {}).items()))
    return "%d %s seed=%s seconds=%s trace=%s correct=%s %s" % (
        index, meta.get("git_sha", "?")[:8], meta.get("seed"),
        meta.get("seconds"), meta.get("trace"), result.get("correct"),
        metrics)


def show(workload):
    for index, record in enumerate(load_records(workload)):
        if workload == "inference":
            for line in format_inference(index, record):
                print(line)
        else:
            print(format_record(index, record))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--checkout")
    parser.add_argument("--show", choices=WORKLOADS + ("inference",))
    parser.add_argument("--inference", metavar="BINARY")
    args = parser.parse_args()
    if args.show:
        show(args.show)
    elif args.inference:
        run_inference(args)
    elif args.workload and args.seed is not None and args.seconds:
        run_once(args)
    else:
        parser.error("give --show, or --workload, --seed and --seconds")


if __name__ == "__main__":
    main()
