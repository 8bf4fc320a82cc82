#!/usr/bin/env python3
"""Regenerates refs/: the expected observations of every pooled request.

References come from the SSE interpreter (`--engine=sse`), never from the
AccMoS code-generation path the benchmark times. Run from the repository
root after a change that legitimately alters observations:

    python3 e2ebench/make_refs.py [--jobs N]

A full regeneration takes about 10 minutes with the default 3 jobs (the
interpreter is ~100x slower than generated code); --jobs runs that many
references at once.
"""

import argparse
import concurrent.futures
import os
import subprocess
import sys

import run
import workloads as w


def run_ref(accmos, workload, model, seed, steps):
    path = w.run_ref_path(w.REFS, workload, seed, steps)
    p = subprocess.run([accmos] + w.run_args(model, seed, steps, "sse"),
                       cwd=run.ROOT, stdout=subprocess.PIPE, check=False,
                       env=run.clean_env())
    if p.returncode not in (0, 3):
        raise RuntimeError("%s exited %d" % (path, p.returncode))
    with open(path, "w") as f:
        f.write("exit: %d\n%s\n" % (p.returncode,
                                    w.observations(p.stdout.decode())))
    return path


def campaign_ref(probe, base):
    path = w.campaign_ref_path(w.REFS, base)
    p = subprocess.run([probe, "campaign-ref", os.path.join(run.ROOT, w.CAMPAIGN_MODEL),
                        str(base), str(w.CAMPAIGN_SPECS), str(w.CAMPAIGN_STEPS), "1"],
                       stdout=subprocess.PIPE, check=True, env=run.clean_env())
    with open(path, "wb") as f:
        f.write(p.stdout)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", type=int, default=3)
    args = ap.parse_args()
    accmos, probe = run.build()
    for sub in ("long_run", "seed_sweep", "campaign"):
        os.makedirs(os.path.join(w.REFS, sub), exist_ok=True)
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        jobs = [pool.submit(campaign_ref, probe, b) for b in w.CAMPAIGN_BASES]
        jobs += [pool.submit(run_ref, accmos, "long_run", w.LONG_RUN_MODEL, s,
                             w.LONG_RUN_STEPS) for s in w.LONG_RUN_SEEDS]
        jobs += [pool.submit(run_ref, accmos, "seed_sweep", w.SWEEP_MODEL, s, n)
                 for s, n in w.SWEEP_POOL]
        for job in concurrent.futures.as_completed(jobs):
            print(job.result(), file=sys.stderr)


if __name__ == "__main__":
    main()
