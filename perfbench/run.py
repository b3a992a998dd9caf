#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check [--workload NAME] [--seed N]

The runner builds perfbench/wbench.exe with dune, has it generate the
workload's inputs from the seed into .perfbench_work/, then repeats whole
trials (one process each: a campaign or a serve session with one worker
domain and a fixed round budget) until the time is used.  It prints the
median of the per-trial figures, except for set-up and latency
percentiles, which it takes over the samples of all trials pooled.
Every trial must reproduce the same count guards and verdict digest; a
difference, a failed operation or a missing verdict makes the result
incorrect.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced
and untraced trials and reports the per-layer ledger from the traced
ones, plus trace.overhead_pct: the untraced median payloads_per_s over
the traced median, minus one, in percent.

--check runs each workload's trial twice and reports, count by count,
which counts repeated exactly; it exits 1 if any differs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "wbench.exe")

WORKLOADS = ["audit-fleet", "deep-verify", "serve-mixed"]

E2E = [
    ("setup_s", "s"),
    ("payloads_per_s", "1/s"),
    ("branches", "count"),
    ("detection_f1", "ratio"),
    ("peak_heap_mb", "MB"),
    ("fresh_p50_s", "s"),
    ("fresh_p90_s", "s"),
    ("cached_p50_s", "s"),
]

LAYER = [
    ("smt.blast_s", "s"),
    ("smt.ms_per_blast", "ms"),
    ("smt.blasted", "count"),
    ("smt.quick", "count"),
    ("smt.unknown", "count"),
    ("smt.cache_hits", "count"),
    ("smt.cache_misses", "count"),
    ("smt.quick_share", "ratio"),
    ("smt.cache_hit_rate", "ratio"),
    ("symbolic.flips_solved", "count"),
    ("symbolic.imprecise", "count"),
    ("symbolic.solve_yield", "ratio"),
    ("engine.unspanned_s", "s"),
    ("engine.setup_ms_per_target", "ms"),
    ("engine.payloads", "count"),
    ("engine.rounds", "count"),
    ("engine.adaptive_seeds", "count"),
    ("engine.adaptive_share", "ratio"),
    ("engine.oracle_s", "s"),
    ("engine.truncated", "count"),
    ("exec.compiled_s", "s"),
    ("exec.us_per_payload", "us"),
    ("wasm.compile_s", "s"),
    ("wasabi.instrument_s", "s"),
    ("wasabi.trace_scan_s", "s"),
    ("campaign.load_validate_s", "s"),
    ("campaign.plan_s", "s"),
    ("campaign.journal_append_s", "s"),
    ("campaign.journal_appends", "count"),
    ("corpus.io_s", "s"),
    ("corpus.records_added", "count"),
    ("corpus.load_s", "s"),
    ("serve.resume_s", "s"),
    ("serve.journal_load_s", "s"),
    ("serve.qwait_p50_s", "s"),
    ("serve.busy", "count"),
    ("serve.errors", "count"),
    ("serve.generator_lag_max_s", "s"),
    ("gc.minor_words_per_payload", "words"),
    ("gc.minor_collections", "count"),
    ("gc.major_collections", "count"),
    ("gc.top_heap_words", "words"),
]

# Percentiles taken over the samples of all untraced trials of a run,
# not as a median of per-trial percentiles: the pooled tail has several
# times the samples beyond it.
POOLED = [
    ("setup_s", "setup", 0.5),
    ("fresh_p50_s", "fresh", 0.5),
    ("fresh_p90_s", "fresh", 0.9),
    ("cached_p50_s", "cached", 0.5),
]

MIN_TRIALS = 3
TRIAL_TIMEOUT = 150
RUN_CAP = 165


def quantile(xs, q):
    """Linear interpolation between closest ranks, as wbench computes it."""
    a = sorted(xs)
    pos = q * (len(a) - 1)
    lo = int(pos)
    hi = min(len(a) - 1, lo + 1)
    return a[lo] + (pos - lo) * (a[hi] - a[lo])


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        die("no dune-project and lib/ beside perfbench/: run from a "
            "checkout of the repository")
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", "perfbench/wbench.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=880)
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed")


def wbench(args, cwd, timeout=TRIAL_TIMEOUT):
    r = subprocess.run([EXE] + args, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=timeout)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die("wbench %s exited with %d" % (" ".join(args[:2]), r.returncode))
    return r.stdout


def trial(workload, gen, run_dir, index, trace):
    tdir = os.path.join(run_dir, "t%d" % index)
    os.makedirs(tdir)
    t0 = time.monotonic()
    out = wbench(["trial", workload, gen, str(index), "1" if trace else "0"],
                 tdir)
    took = time.monotonic() - t0
    shutil.rmtree(tdir, ignore_errors=True)
    res = json.loads(out.strip().splitlines()[-1])
    res["trace"] = trace
    res["took"] = took
    return res


def differences(trials, key):
    """Names under trials[*][key] whose values are not all equal."""
    names = set()
    for t in trials:
        names |= set(t[key])
    return sorted(n for n in names
                  if len({t[key].get(n) for t in trials}) > 1)


def verify(trials):
    """What makes the run incorrect: a failed operation, or a count
    guard, digest or exactly-repeating metric that differs between
    trials."""
    problems = []
    for t in trials:
        if t["failed"]:
            problems.append("trial failed %d of %d operations"
                            % (t["failed"], t["attempted"]))
        if not t["e2e"]:
            problems.append("trial produced no result")
    if problems:
        return problems
    for n in differences(trials, "guards"):
        problems.append("count guard %s differs: %s"
                        % (n, [t["guards"].get(n) for t in trials]))
    # Telemetry allocates a little on its cold paths, so GC counts are
    # compared between trials of the same mode only.
    for mode in (False, True):
        same = [t for t in trials if t["trace"] == mode]
        for n in differences(same, "gc") if len(same) > 1 else []:
            problems.append("gc count %s differs: %s"
                            % (n, [t["gc"].get(n) for t in same]))
    if len({t["digest"] for t in trials}) != 1:
        problems.append("verdict digest differs")
    for n in ("branches", "detection_f1"):
        if len({t["e2e"][n] for t in trials}) != 1:
            problems.append("%s differs: %s"
                            % (n, [t["e2e"][n] for t in trials]))
    return problems


def report_trials(trials):
    for i, t in enumerate(trials):
        e = t["e2e"]
        keys = [k for k, _ in E2E] + sorted(k for k in e
                                            if k.startswith("wall_"))
        print("trial %d trace=%d took=%.2fs %s" % (
            i, t["trace"], t["took"],
            " ".join("%s=%.6g" % (k, e[k]) for k in keys if k in e)))
    t = trials[0]
    if t["e2e"]:
        print("samples: fresh=%d cached=%d scored=%d" % (
            t["e2e"]["fresh_samples"], t["e2e"]["cached_samples"],
            t["e2e"]["scored"]))
    print("count guards: " + json.dumps(t["guards"], sort_keys=True))
    if t["gc"]:
        print("gc counts: " + json.dumps(t["gc"], sort_keys=True))
    print("verdict digest: " + t["digest"])


def prepare(workload, seed):
    run_dir = os.path.join(WORK, "%s-%d-%d" % (workload, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    gen = os.path.join(run_dir, "gen")
    wbench(["gen", workload, str(seed), gen], run_dir, timeout=300)
    return run_dir, gen


def run(args):
    run_dir, gen = prepare(args.workload, args.seed)
    try:
        start = time.monotonic()
        trials = []
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(trials) % 2 == 0
            t = trial(args.workload, gen, run_dir, len(trials), traced)
            trials.append(t)
            longest = max(longest, t["took"])
            elapsed = time.monotonic() - start
            if len(trials) >= MIN_TRIALS and elapsed + longest > args.seconds:
                break
            if elapsed + longest > RUN_CAP:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report_trials(trials)
    problems = verify(trials)
    for p in problems:
        print("INCORRECT: " + p)
    metrics = {}
    if not problems:
        plain = [t for t in trials if not t["trace"]]
        traced = [t for t in trials if t["trace"]]
        if args.trace:
            for name, unit in LAYER:
                metrics[name] = {
                    "value": statistics.median(t["layer"][name]
                                               for t in traced),
                    "unit": unit}
            pps = statistics.median(t["e2e"]["payloads_per_s"] for t in plain)
            tpps = statistics.median(t["e2e"]["payloads_per_s"]
                                     for t in traced)
            metrics["trace.overhead_pct"] = {
                "value": 100.0 * (pps / tpps - 1.0), "unit": "%"}
        else:
            for name, unit in E2E:
                metrics[name] = {
                    "value": statistics.median(t["e2e"][name] for t in plain),
                    "unit": unit}
            pooled = {k: [x for t in plain for x in t["samples"][k]]
                      for k in ("setup", "fresh", "cached")}
            print("pooled samples: " + " ".join(
                "%s=%d" % (k, len(v)) for k, v in pooled.items()))
            for name, kind, q in POOLED:
                metrics[name]["value"] = quantile(pooled[kind], q)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(t["attempted"] for t in trials),
        "failed": sum(t["failed"] for t in trials),
        "metrics": metrics,
    }))


def check(args):
    names = [args.workload] if args.workload else WORKLOADS
    differ = []
    for name in names:
        run_dir, gen = prepare(name, args.seed)
        try:
            pair = [trial(name, gen, run_dir, i, False) for i in range(2)]
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        print("== %s (seed %d)" % (name, args.seed))
        for key in ("guards", "gc"):
            for n in sorted(pair[0][key]):
                a, b = pair[0][key][n], pair[1][key].get(n)
                print("%-16s %-7s %14s %14s %s" % (
                    n, key, a, b, "repeats" if a == b else "DIFFERS"))
                if a != b:
                    differ.append("%s/%s" % (name, n))
        if pair[0]["digest"] != pair[1]["digest"]:
            differ.append("%s/digest" % name)
        print("%-16s %-7s %s" % ("digest", "verdict", "repeats"
                                  if pair[0]["digest"] == pair[1]["digest"]
                                  else "DIFFERS"))
    if differ:
        print("counts that differ: " + ", ".join(differ))
        sys.exit(1)
    print("every count repeated exactly")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", action="store_true")
    args = p.parse_args()
    build()
    if args.check:
        check(args)
    elif args.workload is None:
        die("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
