#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at minimal size.

    python3 e2ebench/smoke.py

Checks, for every workload, that a one-second run with one set-up prints
every metric BENCHMARK.json names, each with its unit, untraced and traced,
with no failed request. Then corrupts one reference in a copy of refs/ and
checks that the requests it covers count as failed. Exits 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads as w

SEED = 7


def bench(workload, trace, refs=w.REFS):
    p = subprocess.run([sys.executable, os.path.join(w.HERE, "run.py"),
                        "--workload", workload, "--seed", str(SEED),
                        "--seconds", "1", "--trace", str(trace),
                        "--setups", "1", "--refs", refs],
                       cwd=run.ROOT, stdout=subprocess.PIPE, check=True)
    return json.loads(p.stdout.decode().strip().split("\n")[-1])


def corrupt(path):
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text.replace("1", "2", 1) if "1" in text else text + "x")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = bench(wl["name"], trace)
            if not r["correct"] or r["failed"] or r["attempted"] < 1:
                problems.append("%s trace %d: %d of %d failed"
                                % (wl["name"], trace, r["failed"], r["attempted"]))
            for m in spec[key]:
                got = r["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s trace %d: metric %s missing or mis-unit: %r"
                                    % (wl["name"], trace, m["name"], got))
            if set(r["metrics"]) != {m["name"] for m in spec[key]}:
                problems.append("%s trace %d: unexpected metric set" % (wl["name"], trace))

    refs = os.path.join(run.ROOT, ".bench_run", "smoke-%d" % os.getpid())
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(w.REFS, refs)
    try:
        corrupt(w.run_ref_path(refs, "long_run", w.long_run_seed(SEED),
                               w.LONG_RUN_STEPS))
        corrupt(w.campaign_ref_path(refs, w.campaign_base(SEED)))
        for name in ("long_run", "campaign"):
            r = bench(name, 0, refs)
            if r["correct"] or r["failed"] != r["attempted"]:
                problems.append("%s: corrupted reference not caught (%d of %d failed)"
                                % (name, r["failed"], r["attempted"]))
    finally:
        shutil.rmtree(refs, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
