#!/usr/bin/env python3
"""End-to-end SND benchmark: the `snd` binary on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. It builds `snd` and the in-process
harness (`perfbench/harness`) with cargo into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates the workload from the seed, and
keeps its scratch files under `.bench_work`.

`--trace 0` times `snd` itself in a closed loop with one client: each
iteration runs the workload's set-up probe (the same graph with its
first state repeated, so nothing is priced) and then the workload, each
invocation starting after the previous one exits, until `--seconds`
have passed and every median has enough samples. Every invocation's
output is gated against an oracle computed outside the timed loop. `--trace 1` replays the workload
in-process through the harness, once at the default thread count and
once single-threaded, with a timed span around each layer.

Human-readable records go to stdout; the last line is the result JSON.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = {
    "series_exact": {"dataset": "series_exact", "flags": []},
    "allpairs_shard": {"dataset": "allpairs", "flags": []},
    "allpairs_orchestrate": {"dataset": "allpairs", "flags": []},
    "approx_series": {
        "dataset": "approx_series",
        "flags": ["--approx", "--epsilon", "0.5", "--landmarks", "24"],
    },
}

# Fewest workload runs and probes a median is taken over. Probes need
# fewer: the approximate tier's probe is most of its run, and set-up time
# is read as a median across runs rather than for its spread.
MIN_RUNS = 5
MIN_PROBES = 3
# No single `snd` invocation of these workloads comes near this; one that
# does is killed (with its workers) and counted as failed.
INVOCATION_TIMEOUT_S = 150
# A second seed, derived from the first, confirms in traced runs that the
# workloads keep their shape.
SECOND_SEED_OFFSET = 1_000_003


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """A run whose exit status or output check failed."""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for needed in ["Cargo.toml", "crates/cli/Cargo.toml", "perfbench/harness/Cargo.toml"]:
        if not os.path.isfile(needed):
            log(f"perfbench: {needed} not found; run from the root of an SND source tree")
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    snd, harness = build(target)
    if snd is None:
        return 1

    bench = Bench(args, snd, harness)
    if args.trace:
        metrics = bench.traced()
    else:
        metrics = bench.end_to_end()
    if metrics is None:
        return 1
    print("perfbench record: " + json.dumps(bench.record, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def build(target):
    """Builds `snd` and the harness; returns their paths, or Nones."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "snd-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/harness/Cargo.toml"],
    ]:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log(f"perfbench: build failed: {' '.join(cmd)}")
            return None, None
    release = os.path.join(target, "release")
    return os.path.join(release, "snd"), os.path.join(release, "perfbench-harness")


def run_env(threads=None):
    """The user's environment; `threads` pins rayon's pool size."""
    env = dict(os.environ)
    env.pop("RAYON_NUM_THREADS", None)
    if threads is not None:
        env["RAYON_NUM_THREADS"] = str(threads)
    return env


def spawn(argv, out_path, env):
    """Runs one process to exit: (status, wall s, cpu s, peak RSS MiB).

    Wall time runs from spawn to exit. CPU and peak RSS come from
    `wait4`, so they cover the whole process tree (a process's reaped
    children count). A process past the timeout is killed with its
    process group.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    # Already reaped by `wait4`; tell `Popen` so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Reap anything left in the group (nothing, when `snd` behaves).
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def read(path):
    with open(path) as f:
        return f.read()


class Bench:
    def __init__(self, args, snd, harness):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.snd = snd
        self.harness = harness
        self.attempted = 0
        self.failed = 0
        self.work = os.path.join(".bench_work", "run")
        os.makedirs(self.work, exist_ok=True)
        with open(harness, "rb") as f:
            self.build_key = hashlib.sha256(f.read()).hexdigest()[:16]
        self.inputs = os.path.join(".bench_work", "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        # Inputs and oracles of other harness builds are stale.
        for name in os.listdir(self.inputs):
            if not name.startswith(".") and not name.endswith(self.build_key):
                shutil.rmtree(os.path.join(self.inputs, name))
        self.record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_rev": git_rev(),
            "unix_time": int(time.time()),
            "nproc": len(os.sched_getaffinity(0)),
            "rayon_num_threads_env": os.environ.get("RAYON_NUM_THREADS"),
        }

    # -- inputs ---------------------------------------------------------

    def dataset(self, seed):
        """Generates (or reuses) the seed's dataset, probe and oracle.

        The oracle is computed at most once per dataset, seed and harness
        build, outside every timed loop; the two all-pairs workloads
        share one.
        """
        name = f"{self.spec['dataset']}-{seed}-{self.build_key}"
        d = os.path.join(self.inputs, name)
        gen_path = os.path.join(d, "gen.json")
        if not os.path.isfile(gen_path):
            tmp = os.path.join(self.inputs, "." + name)
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            cmd = [self.harness, "gen", "--workload", self.args.workload,
                   "--seed", str(seed), "--dir", tmp]
            if subprocess.run(cmd, env=run_env(), stdout=sys.stderr).returncode != 0:
                raise SystemExit("perfbench: generating the workload failed")
            os.replace(tmp, d)
        gen = json.loads(read(gen_path))
        gen["dir"] = d
        return gen

    def shape(self, gen):
        return {k: gen[k] for k in
                ["nodes", "edges", "snapshots", "evals", "n_delta_mean", "n_delta_max"]}

    # -- one `snd` run ----------------------------------------------------

    def snd_run(self, data, gen, gate=True):
        """One workload (or probe) run: the subcommand(s) the workload
        names, on `data`. Returns (wall, cpu, rss, output) — the output is
        the printed text of `snd anomaly`, or the merged matrix's rows."""
        w = self.args.workload
        out = os.path.join(self.work, "out.txt")
        flags = self.spec["flags"]
        if w in ("series_exact", "approx_series"):
            steps = [[self.snd, "anomaly", "--data", data] + flags]
        elif w == "allpairs_shard":
            ckpt = os.path.join(self.work, "part0.snd")
            steps = [
                [self.snd, "shard", "--data", data, "--shard", "0/1", "--checkpoint", ckpt],
                [self.snd, "shard", "merge", "--out", os.path.join(self.work, "matrix.json"), ckpt],
            ]
        else:
            ckpt = os.path.join(self.work, "run.snd")
            steps = [[self.snd, "orchestrate", "--data", data, "--checkpoint", ckpt,
                      "--workers", "2", "--listen", os.path.join(self.work, "o.sock"),
                      "--out", os.path.join(self.work, "matrix.json")]]
        for stale in ["part0.snd", "run.snd", "matrix.json"]:
            path = os.path.join(self.work, stale)
            if os.path.exists(path):
                os.remove(path)

        self.attempted += 1
        wall = cpu = rss = 0.0
        text = ""
        try:
            for argv in steps:
                status, s_wall, s_cpu, s_rss = spawn(argv, out, run_env())
                text += read(out)
                if status != 0:
                    raise Failure(f"{' '.join(argv[1:3])} exited with {status}: "
                                  + read(out + ".err")[-400:])
                wall += s_wall
                cpu += s_cpu
                rss = max(rss, s_rss)
            output = text
            if self.spec["dataset"] == "allpairs":
                output = json.loads(read(os.path.join(self.work, "matrix.json")))["rows"]
            if gate:
                self.gate(gen, output)
        except Failure as e:
            self.failed += 1
            log(f"perfbench: FAILED run: {e}")
            return None
        return wall, cpu, rss, output

    def gate(self, gen, output):
        """Checks one workload run's output against the oracle."""
        w = self.args.workload
        if w == "series_exact":
            # `snd anomaly` prints the series scaled to [0, 1] and rounded,
            # which hides a uniform scale error. The raw values of the
            # function it calls are checked when the oracle is made.
            if gen["raw_cli"] != gen["raw"]:
                raise Failure("series_distances, which snd anomaly calls, "
                              "differs from series_distances_seq")
            rows = anomaly_rows(output)
            if [row[1] for row in rows] != gen["printed"]:
                raise Failure("printed SND series differs from series_distances_seq")
            if [row[2] for row in rows] != gen["scores"]:
                raise Failure("printed anomaly scores differ from the oracle's")
            if flagged(output) != gen["flagged"]:
                raise Failure("flagged transitions differ from the oracle's")
        elif w == "approx_series":
            rows = anomaly_rows(output)
            exact = gen["exact"]
            if len(rows) != len(exact):
                raise Failure(f"{len(rows)} intervals for {len(exact)} transitions")
            # Bounds are printed to 4 decimals: allow half a unit of that.
            for (lo, hi), d in zip((interval(r) for r in rows), exact):
                if not (lo - 5e-5 <= d <= hi + 5e-5):
                    raise Failure(f"interval [{lo}, {hi}] misses exact SND {d!r}")
        else:
            if output != gen["matrix"]:
                raise Failure("matrix differs from pairwise_distances_seq")

    # -- --trace 0 --------------------------------------------------------

    def end_to_end(self):
        gen = self.dataset(self.args.seed)
        self.record["input"] = self.shape(gen)
        self.record["threads"] = gen["threads"]
        data = os.path.join(gen["dir"], "data.json")
        probe = os.path.join(gen["dir"], "probe.json")
        runs, probes = [], []
        started = time.perf_counter()
        # Closed loop: probe, workload, probe, workload, ... until
        # `--seconds` are up and each median rests on enough samples.
        while (time.perf_counter() - started < self.args.seconds
               or len(runs) < MIN_RUNS or len(probes) < MIN_PROBES):
            p = None
            if len(probes) < MIN_PROBES or time.perf_counter() - started < self.args.seconds:
                p = self.snd_run(probe, gen, gate=False)
            if p is not None:
                probes.append(p)
                # A probe this short is mostly process start: repeat it so
                # its median does not rest on one spawn.
                if p[0] < 0.1:
                    for _ in range(4):
                        p = self.snd_run(probe, gen, gate=False)
                        if p is not None:
                            probes.append(p)
            r = self.snd_run(data, gen)
            if r is not None:
                runs.append(r)
            if self.attempted > 200 or (self.failed and not runs):
                break
        if not runs or not probes:
            log("perfbench: no successful run to report")
            return None

        wall = statistics.median(r[0] for r in runs)
        self.record["runs"] = [round(r[0], 4) for r in runs]
        self.record["probes"] = [round(p[0], 4) for p in probes]
        self.record["failed_frac"] = self.failed / self.attempted
        if self.args.workload == "approx_series":
            self.record["interval_rel_width"] = statistics.mean(
                interval_rel_width(r[3]) for r in runs)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(p[0] for p in probes),
            "evals_per_s": gen["evals"] / wall,
            "cpu_s": statistics.median(r[1] for r in runs),
            "peak_rss_mib": statistics.median(r[2] for r in runs),
        }
        return with_units(values, "end_to_end")

    # -- --trace 1 --------------------------------------------------------

    def traced(self):
        gen = self.dataset(self.args.seed)
        self.record["input"] = self.shape(gen)
        cli = self.snd_run(os.path.join(gen["dir"], "data.json"), gen)
        setup = self.snd_run(os.path.join(gen["dir"], "probe.json"), gen, gate=False)
        if cli is None or setup is None:
            return None
        passes = []
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < self.args.seconds:
            two = self.trace_pass(gen, cli[3], baseline=False)
            one = self.trace_pass(gen, cli[3], baseline=True)
            if two is None or one is None:
                break
            passes.append((two, one))
        # The second seed: one gated run, to confirm the shape holds.
        gen2 = self.dataset(self.args.seed + SECOND_SEED_OFFSET)
        self.snd_run(os.path.join(gen2["dir"], "data.json"), gen2)
        self.record["second_seed_input"] = self.shape(gen2)
        if not passes:
            return None

        two = [p[0] for p in passes]
        one = [p[1] for p in passes]
        self.record["threads"] = two[0]["threads"]
        self.record["baseline_threads"] = one[0]["threads"]
        self.record["setup_s"] = setup[0]
        values = {name: statistics.median(t["metrics"][name] for t in two)
                  for name in two[0]["metrics"]}
        values["trace.speedup_2t"] = (statistics.median(t["work_s"] for t in one)
                                      / statistics.median(t["work_s"] for t in two))
        inflation = 0.0
        if self.args.workload == "allpairs_orchestrate":
            inflation = (values["orchestrate.worker_compute_s"]
                         / statistics.median(t["metrics"]["shard.tiles_s"] for t in one))
        values["orchestrate.compute_inflation"] = inflation
        self.record["ctx_build_share_of_setup"] = values["approx.ctx_build_s"] / setup[0]
        if "sketch_rows" in two[0]:
            self.record["sketch_rows"] = two[0]["sketch_rows"]
        self.record["failed_frac"] = self.failed / self.attempted
        return with_units(values, "per_layer")

    def trace_pass(self, gen, cli_output, baseline):
        """One harness replay; its values must match the CLI bit for bit."""
        self.attempted += 1
        cmd = [self.harness, "trace", "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--dir", self.work]
        env = run_env(1) if baseline else run_env()
        if baseline:
            cmd.append("--baseline")
        try:
            if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
                raise Failure("harness trace exited non-zero")
            path = os.path.join(self.work, "trace.json")
            t = json.loads(read(path))
            os.remove(path)
            self.gate_replay(gen, cli_output, t)
        except Failure as e:
            self.failed += 1
            log(f"perfbench: FAILED trace: {e}")
            return None
        return t

    def gate_replay(self, gen, cli_output, t):
        w = self.args.workload
        if w == "series_exact":
            if t["values"] != gen["raw"]:
                raise Failure("replayed series differs from series_distances_seq")
            if t["printed"] != [r[1] for r in anomaly_rows(cli_output)]:
                raise Failure("replayed series differs from the CLI output")
        elif w == "approx_series":
            rows = anomaly_rows(cli_output)
            printed = [r[1] for r in rows]
            bounds = [interval_text(r) for r in rows]
            if t["printed"] != printed or \
                    list(zip(t["printed_lower"], t["printed_upper"])) != bounds:
                raise Failure("replayed intervals differ from the CLI output")
        else:
            k = len(gen["matrix"])
            upper = [gen["matrix"][i][j] for i in range(k) for j in range(i + 1, k)]
            if t["values"] != upper:
                raise Failure("replayed matrix differs from pairwise_distances_seq")
            if [cli_output[i][j] for i in range(k) for j in range(i + 1, k)] != t["values"]:
                raise Failure("replayed matrix differs from the CLI output")


def with_units(values, kind):
    """The result's metrics: each value with the unit `BENCHMARK.json`
    gives it. The names must be exactly those it lists under `kind`."""
    with open("BENCHMARK.json") as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[kind]}
    if set(values) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(units))} "
                         f"disagree with BENCHMARK.json {kind}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def anomaly_rows(text):
    """The per-transition rows of `snd anomaly` output, split on blanks."""
    rows = []
    lines = text.splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if l.split()[:3] == ["t", "SND", "score"])
    except StopIteration:
        raise Failure("no anomaly table in the output")
    for line in lines[start + 1:]:
        if not line.strip():
            break
        rows.append(line.split())
    return rows


def flagged(text):
    """The transitions `snd anomaly` flags, from its `top-k` line."""
    for line in text.splitlines():
        if line.startswith("top-") and "flagged transitions:" in line:
            return json.loads(line.split(":", 1)[1])
    raise Failure("no flagged transitions in the output")


def interval_text(row):
    """The printed `[lower, upper]` of an approximate anomaly row."""
    try:
        i = row.index("in")
        return row[i + 1].strip("[,"), row[i + 2].rstrip("]")
    except (ValueError, IndexError):
        raise Failure(f"no certified interval in row {' '.join(row)!r}")


def interval(row):
    lo, hi = interval_text(row)
    return float(lo), float(hi)


def interval_rel_width(text):
    widths = [(hi - lo) / hi for lo, hi in map(interval, anomaly_rows(text)) if hi > 0]
    return statistics.mean(widths) if widths else 0.0


def git_rev():
    """The tree's git revision, when it is a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
