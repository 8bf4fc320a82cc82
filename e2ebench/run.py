#!/usr/bin/env python3
"""End-to-end benchmark of the AccMoS pipeline (see README.md).

    python3 e2ebench/run.py --workload long_run|seed_sweep|campaign \
        --seed N --seconds S --trace 0|1 [--setups K] [--refs DIR]

Builds the `accmos` CLI and the layer probe from the repository sources,
runs one workload as a closed loop with one client, checks every request
against the SSE-interpreter references in refs/, and prints as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, taken by the probe around each layer's public functions.
"""

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads as w

HERE = w.HERE
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
SETUPS = 3            # set-ups per run; setup_s is their median
UNTRACED_SHARE = 0.4  # share of a traced run spent on the untraced phase

END_TO_END = {"setup_s": "s", "p50_ms": "ms", "msteps_per_s": "Msteps/s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "parser.load_ms": "ms", "parser.model_kb": "KiB",
    "graph.flatten_ms": "ms", "graph.actors": "count",
    "opt.optimize_ms": "ms", "opt.actors_after": "count",
    "codegen.emit_ms": "ms", "codegen.source_kb": "KiB",
    "codegen.key_ms": "ms", "codegen.load_ms": "ms",
    "cli.launch_ms": "ms", "cli.unattributed_ms": "ms",
    "codegen.compile_s": "s", "codegen.compiler_invocations": "count",
    "codegen.cache_hits": "count", "codegen.cache_misses": "count",
    "codegen.cache_hit_ratio": "ratio",
    "codegen.step_ns": "ns", "codegen.batch_lane_step_ns": "ns",
    "sim.evaluate_s": "s", "sim.busy_s": "s", "sim.worker_util": "ratio",
    "sim.merge_ms": "ms",
    "serve.roundtrip_ms": "ms", "serve.daemon_wall_ms": "ms",
    "serve.overhead_ms": "ms", "serve.encode_ms": "ms",
    "serve.decode_ms": "ms", "serve.result_kb": "KiB",
    "serve.pool_hits": "count", "serve.pool_misses": "count",
    "serve.resident_kb": "KiB",
    "trace.requests": "count", "trace.overhead_ms": "ms",
}


class BenchError(Exception):
    pass


def log(msg):
    print("e2ebench: " + msg, file=sys.stderr, flush=True)


def clean_env(**extra):
    """The caller's environment without ACCMOS_* knobs, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACCMOS_")}
    env.update(extra)
    return env


def build():
    """Builds the CLI and the probe; returns their paths."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repository sources next to the benchmark")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "accmos_cli",
                        "e2e_probe", "-j", str(min(4, os.cpu_count() or 1))],
                       stdout=out, stderr=subprocess.STDOUT, check=True)
    return (os.path.join(BUILD, "accmos", "tools", "accmos"),
            os.path.join(BUILD, "e2e_probe"))


def stamp(accmos, args):
    """nproc, compiler, commit and seed: what a number needs to be compared."""
    cxx = os.environ.get("CXX", "c++")
    version = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, check=False)
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                stdout=subprocess.PIPE, check=False
                                ).stdout.decode().strip() or commit
    tool = subprocess.run([accmos, "--version"], stdout=subprocess.PIPE,
                          check=False)
    return {"nproc": os.cpu_count(), "host": platform.machine(),
            "compiler": shutil.which(cxx) or cxx,
            "compiler_version": version.stdout.decode().split("\n")[0],
            "commit": commit,
            "accmos_version": tool.stdout.decode().split("\n")[0],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Checker:
    """Counts requests and checks each against its reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._cache = {}

    def _ref(self, path):
        if path not in self._cache:
            with open(path) as f:
                head, _, body = f.read().partition("\n")
            if not head.startswith("exit: "):
                raise BenchError("malformed reference " + path)
            self._cache[path] = (int(head[6:]), body.rstrip("\n"))
        return self._cache[path]

    def check(self, ref_path, exit_code, obs):
        exit_ref, obs_ref = self._ref(ref_path)
        self.attempted += 1
        if exit_code != exit_ref or obs != obs_ref:
            self.failed += 1
            log("request differs from %s (exit %d, expected %d)"
                % (os.path.relpath(ref_path, ROOT), exit_code, exit_ref))


def cli_request(argv, env):
    """One `accmos` process: (seconds, exit code, stdout, peak RSS MiB).

    The RSS is the largest process of the request's tree (wait4 folds the
    compiler a request spawns into its child's figure)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    seconds = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return seconds, p.returncode, out.decode(), usage.ru_maxrss / 1024.0


CLI_EXEC = re.compile(r"^exec     : ([0-9.]+)s", re.M)
CLI_CODEGEN = re.compile(r"^codegen  : ([0-9.]+)s generate \+ ([0-9.]+)s compile"
                         r"(?: \+ ([0-9.]+)s load)?", re.M)


def cli_phases(out):
    """The generate, compile, load and exec seconds `accmos run` prints
    (none for a request that failed before printing them)."""
    codegen, exec_ = CLI_CODEGEN.search(out), CLI_EXEC.search(out)
    if not codegen or not exec_:
        return []
    return [float(x or 0) for x in codegen.groups()] + [float(exec_.group(1))]


def median(values):
    return statistics.median(values) if values else 0.0


class RunWorkload:
    """long_run and seed_sweep: one `accmos run` process per request."""

    def __init__(self, args, accmos, probe, run_dir, checker):
        self.args = args
        self.accmos = accmos
        self.probe = probe
        self.run_dir = run_dir
        self.checker = checker
        if args.workload == "long_run":
            self.model = w.LONG_RUN_MODEL
            seed = w.long_run_seed(args.seed)
            self.requests = iter(lambda: (seed, w.LONG_RUN_STEPS), None)
        else:
            self.model = w.SWEEP_MODEL
            self.requests = w.sweep_requests(args.seed)

    def env(self, cache):
        path = os.path.join(self.run_dir, cache)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return clean_env(ACCMOS_CACHE_DIR=path, TMPDIR=self.run_dir)

    def request(self, env):
        """One timed request; returns its record."""
        seed, steps = next(self.requests)
        argv = [self.accmos] + w.run_args(self.model, seed, steps, "accmos")
        seconds, code, out, rss = cli_request(argv, env)
        ref = w.run_ref_path(self.args.refs, self.args.workload, seed, steps)
        self.checker.check(ref, code, w.observations(out))
        return {"seconds": seconds, "seed": seed, "steps": steps, "rss": rss,
                "ref": ref, "out": out}

    def setup(self, setups):
        times = []
        for i in range(setups):
            env = self.env("cache%d" % i)
            times.append(self.request(env)["seconds"])
        return times, env

    def closed_loop(self, env, seconds, each=None):
        """Requests until `seconds` have passed: (records, wall seconds)."""
        done = []
        t0 = time.perf_counter()
        while not done or time.perf_counter() - t0 < seconds:
            done.append(self.request(env))
            if each:
                each(done[-1])
        return done, time.perf_counter() - t0

    def end_to_end(self):
        setups, env = self.setup(self.args.setups)
        done, wall = self.closed_loop(env, self.args.seconds)
        log("%d measured requests" % len(done))
        return {"setup_s": median(setups),
                "p50_ms": 1e3 * median([d["seconds"] for d in done]),
                "msteps_per_s": sum(d["steps"] for d in done) / wall / 1e6,
                "peak_rss_mb": max(d["rss"] for d in done)}

    def traced(self):
        _, env = self.setup(1)
        untraced, _ = self.closed_loop(env, UNTRACED_SHARE * self.args.seconds)
        launch = [cli_request([self.accmos, "--version"], env)[0]
                  for _ in range(5)]
        replica = subprocess.Popen(
            [self.probe, "replica", os.path.join(ROOT, self.model)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=self.run_dir, env=self.env("replica_cache"))
        samples = []

        def ask(seed, steps):
            replica.stdin.write("%d %d\n" % (seed, steps))
            replica.stdin.flush()
            r = json.loads(replica.stdout.readline())
            if "error" in r:
                raise BenchError("probe: " + r["error"])
            return r

        def each(d):
            r = ask(d["seed"], d["steps"])
            self.checker.check(d["ref"], r["exit"], w.observations(r["obs"]))
            # The CLI reports its own generate/compile/load/exec seconds;
            # the replica supplies the in-process layers the CLI does not.
            cli_ms = 1e3 * sum(cli_phases(d["out"]))
            replica_ms = sum(r[k] for k in ("parse_ms", "flatten_ms",
                                            "optimize_ms", "report_ms"))
            r["unattributed_ms"] = 1e3 * d["seconds"] - cli_ms - replica_ms
            samples.append(r)

        try:
            if self.args.workload == "long_run":
                ask(w.long_run_seed(self.args.seed), w.LONG_RUN_STEPS)
            traced, _ = self.closed_loop(
                env, (1 - UNTRACED_SHARE) * self.args.seconds, each)
        finally:
            replica.stdin.close()
            replica.wait()

        def med(key):
            return median([r[key] for r in samples])

        hits = sum(1 for r in samples if r["cache_hit"])
        layers = {
            "parser.load_ms": med("parse_ms"),
            "parser.model_kb": med("model_kb"),
            "graph.flatten_ms": med("flatten_ms"),
            "graph.actors": med("actors"),
            "opt.optimize_ms": med("optimize_ms"),
            "opt.actors_after": med("actors_after"),
            "codegen.emit_ms": med("emit_ms"),
            "codegen.source_kb": med("source_kb"),
            "codegen.key_ms": med("key_ms"),
            "codegen.load_ms": med("load_ms"),
            "cli.launch_ms": 1e3 * median(launch),
            "cli.unattributed_ms": med("unattributed_ms"),
            "codegen.compile_s": med("compile_s"),
            "codegen.compiler_invocations":
                statistics.mean(r["compiler_invocations"] for r in samples),
            "codegen.cache_hits": hits,
            "codegen.cache_misses": len(samples) - hits,
            "codegen.cache_hit_ratio": hits / len(samples),
            "codegen.step_ns": med("step_ns"),
        }
        return (layers, [d["seconds"] for d in untraced],
                [d["seconds"] for d in traced])


def campaign(args, accmos, probe, run_dir, checker):
    """The campaign workload; the probe drives the daemon (probe.cpp)."""
    base = w.campaign_base(args.seed)
    argv = [probe, "campaign", "--accmos", accmos,
            "--model", os.path.join(ROOT, w.CAMPAIGN_MODEL),
            "--base", str(base), "--specs", str(w.CAMPAIGN_SPECS),
            "--steps", str(w.CAMPAIGN_STEPS),
            "--workers", str(w.CAMPAIGN_WORKERS),
            "--seconds", str(args.seconds),
            "--setups", str(1 if args.trace else args.setups),
            "--trace", str(args.trace),
            "--ref", w.campaign_ref_path(args.refs, base)]
    # Own process group: a probe that overruns is killed with its daemon.
    p = subprocess.Popen(argv, cwd=run_dir, stdout=subprocess.PIPE,
                         env=clean_env(TMPDIR=run_dir), start_new_session=True)
    try:
        out, _ = p.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise BenchError("probe campaign timed out")
    if p.returncode != 0:
        raise BenchError("probe campaign exited %d" % p.returncode)
    r = json.loads(out.decode().strip().split("\n")[-1])
    checker.attempted += r["attempted"]
    checker.failed += r["failed"]
    log("%d measured requests" % len(r["latency_ms"]))
    if not args.trace:
        n = len(r["latency_ms"])
        return {"setup_s": median(r["setup_s"]),
                "p50_ms": median(r["latency_ms"]),
                "msteps_per_s": n * r["steps_per_request"] / r["wall_s"] / 1e6,
                "peak_rss_mb": r["rss_mb"]}
    layers = {k: median(v) for k, v in r["layers"].items()}
    untraced = [ms / 1e3 for ms in r["latency_ms"]]
    traced = [ms / 1e3 for ms in r["traced_ms"]]
    return layers, untraced, traced


def measure(args, accmos, probe, run_dir, checker):
    if args.workload == "campaign":
        result = campaign(args, accmos, probe, run_dir, checker)
    else:
        wl = RunWorkload(args, accmos, probe, run_dir, checker)
        result = wl.traced() if args.trace else wl.end_to_end()
    if not args.trace:
        return {k: {"value": result[k], "unit": u}
                for k, u in END_TO_END.items()}
    layers, untraced, traced = result
    layers["trace.requests"] = len(traced)
    layers["trace.overhead_ms"] = 1e3 * (median(traced) - median(untraced))
    # A layer the workload bypasses reads 0 (README.md, "Layers").
    return {k: {"value": layers.get(k, 0), "unit": u}
            for k, u in PER_LAYER.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["long_run", "seed_sweep", "campaign"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setups", type=int, default=SETUPS,
                    help="cold set-ups per run (setup_s is their median)")
    ap.add_argument("--refs", default=w.REFS,
                    help="reference directory (the smoke test corrupts a copy)")
    args = ap.parse_args()

    try:
        accmos, probe = build()
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s (log: %s)" % (e, os.path.join(BUILD, "build.log")))
        return 1
    run_dir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    checker = Checker()
    try:
        print(json.dumps({"stamp": stamp(accmos, args)}), flush=True)
        metrics = measure(args, accmos, probe, run_dir, checker)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": checker.failed == 0 and checker.attempted > 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
