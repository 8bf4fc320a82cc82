"""Workload inputs of the end-to-end benchmark and where their references live.

Every input is drawn from a fixed pool whose SSE-interpreter observations are
checked in under refs/ (make_refs.py regenerates them). The workload seed
picks from the pool, so the same seed always gives the same inputs and every
timed request has a reference computed outside the timed phases.
"""

import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFS = os.path.join(HERE, "refs")

# long_run: paper Table 2's long instrumented simulation, one stimulus seed
# per run.
LONG_RUN_MODEL = "models/TCP.xml"
LONG_RUN_STEPS = 1_000_000
LONG_RUN_SEEDS = [11, 23, 37, 41, 53, 67, 79, 97]

# seed_sweep: a fresh seed and step count for every request. The k-th
# request of every run asks for SWEEP_STEPS[k % 24], a golden-ratio (Weyl)
# sequence over 20k..200k, so runs differ only in their stimulus seeds and
# the steps a run completes do not depend on the workload seed. Each index
# has four candidate seeds; the workload seed picks the order in which a
# run walks them, so no (seed, steps) pair repeats within 96 requests.
SWEEP_MODEL = "models/CSEV.xml"
SWEEP_STEPS = [20_000 + (k * 40_503 % 65_536) * 180_000 // 65_536
               for k in range(24)]
SWEEP_SEEDS = [[100_003 + 7_919 * (4 * k + c) for c in range(4)]
               for k in range(24)]
SWEEP_POOL = [(seed, SWEEP_STEPS[k]) for k in range(24)
              for seed in SWEEP_SEEDS[k]]

# campaign: paper Table 3's coverage campaign through the daemon.
CAMPAIGN_MODEL = "models/FMTM.xml"
CAMPAIGN_SPECS = 64
CAMPAIGN_STEPS = 50_000
CAMPAIGN_WORKERS = 2
CAMPAIGN_BASES = [1_000, 5_000, 9_000, 13_000]


def long_run_seed(workload_seed):
    return random.Random(workload_seed).choice(LONG_RUN_SEEDS)


def sweep_requests(workload_seed):
    """Endless request stream of (seed, steps) pairs."""
    rng = random.Random(workload_seed)
    first = [rng.randrange(4) for _ in SWEEP_STEPS]
    k = 0
    while True:
        i, lap = k % len(SWEEP_STEPS), k // len(SWEEP_STEPS)
        yield SWEEP_SEEDS[i][(first[i] + lap) % 4], SWEEP_STEPS[i]
        k += 1


def campaign_base(workload_seed):
    return random.Random(workload_seed).choice(CAMPAIGN_BASES)


def run_args(model, seed, steps, engine):
    """The `accmos run` arguments of one request of a run workload."""
    return ["run", model, "--engine=" + engine, "--seed=%d" % seed,
            "--steps=%d" % steps, "--show-uncovered"]


def run_ref_path(refs, workload, seed, steps):
    return os.path.join(refs, workload, "seed%d_steps%d.txt" % (seed, steps))


def campaign_ref_path(refs, base):
    return os.path.join(refs, "campaign", "base%d.json" % base)


# Lines of `accmos run` output that are observations, as opposed to timings
# and engine identity. Trailing blanks are not significant.
OBSERVATION_PREFIXES = ("steps    :", "coverage :", "out[", "monitor  :",
                        "diagnosis:", "uncovered:", "  [")


def observations(text):
    return "\n".join(line.rstrip() for line in text.splitlines()
                     if line.startswith(OBSERVATION_PREFIXES))
