#!/usr/bin/env python3
"""Whole-stack benchmark of the DSN workspace: build, then run workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--quick] [--wrong-pin]

Run from the repository root. The script builds the `perfbench` binary
from source (`cargo build --release --offline`, into `$CARGO_TARGET_DIR`,
default `.bench_build`). The binary runs one repetition of one workload and
prints one JSON record; this script starts it once per repetition, each in
a fresh process, and aggregates the records. A run of a workload is:

1. one reference repetition (short lengths, seed 1), whose outputs are
   checked against the digests pinned in `pins.txt`;
2. rounds of measured repetitions over a fixed list of input seeds derived
   from `--seed`: one round, then more while another round, as long as the
   last one, still ends within `--seconds`. Only whole rounds run, so every
   input weighs the same in the medians however fast the code is.
   With `--trace 1` a round covers the first inputs only, each repeated
   untraced and then traced.

With one workload, the last line of standard output is that workload's
result. With `--workload all` (the default) every workload runs in turn and
the last line sums them up, with metric names prefixed by the workload.
Each run also leaves a record, spans included when traced, under
`<target dir>/perfbench-runs/`.

Exit status: 0 when every workload ran (check `correct` in the result for
the outputs), 1 when the build or a repetition failed, 2 on bad arguments.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from catalogue import END_TO_END, FLOWS, OPT, PER_LAYER, SAT, SCALE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The seed whose outputs are pinned in pins.txt (short lengths always; full
# lengths too when a measured input is this seed).
REFERENCE_SEED = 1
# Input seeds per round of measured repetitions: one round takes about the
# 20 s the benchmark measures for on a 2-core host, so each run medians over
# as many inputs as fit.
SEEDS_PER_ROUND = {SAT: 7, SCALE: 8, FLOWS: 12, OPT: 10}
# Inputs per round of a traced run (its metrics are not gated, and a traced
# flows-256 repetition takes ~10 s).
TRACED_SEEDS = 2
# Seconds one slice of the binary's host-speed probe (see src/probe.rs) takes
# on a 2-core 2.1 GHz Xeon VM at its usual speed. The slices run all through
# an untraced repetition, and their mean time over this nominal one is the
# host's slowdown during it.
PROBE_NOMINAL_S = 0.00120
# How steeply each workload's time follows the probe on a shared host: a
# repetition's set-up and run times are divided by slowdown ** exponent.
# The exponents come from the slope of log(run-level median run time) on
# log(run-level median slowdown) on the 2-core Xeon VM, in two series of
# 10-20 runs per workload half an hour apart: 1.53 and 1.48
# (fig10-sat-256), 1.55 and 0.73 (fig10-scale-2046, set between them),
# 1.22 and 1.25 (flows-256), 0.87 and 0.85 (graph-opt-1020), at
# correlations of 0.79-0.96. The simulator workloads slow down more than
# the probe does as neighbours load the host's caches; graph-opt-1020,
# whose APSP works on a few MB, less.
PROBE_EXPONENT = {SAT: 1.5, SCALE: 1.2, FLOWS: 1.2, OPT: 0.9}
# One run must end within 180 s; this only trips on a hung or runaway run.
RUN_TIMEOUT_S = 170


class RepFailed(Exception):
    pass


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def capture(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the workspace sources the benchmark builds from."""
    files = [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "vendor", "perfbench"):
        for d, subdirs, names in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = [s for s in subdirs if s not in ("target", "__pycache__")]
            files += [os.path.join(d, f) for f in names
                      if f.endswith((".rs", ".toml", ".lock", ".py", ".txt"))]
    h = hashlib.sha256()
    for f in sorted(files):
        if os.path.isfile(f):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit_label():
    label = "git:none"
    # Only this checkout's own repository counts, not one that encloses it.
    top = capture(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top is not None and os.path.realpath(top) == os.path.realpath(ROOT):
        head = capture(["git", "-C", ROOT, "rev-parse", "HEAD"])
        dirty = capture(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"])
        label = f"git:{head}{'+dirty' if dirty else ''}"
    return f"{label} src-sha256:{source_digest()}"


def mix_seed(seed, i):
    """SplitMix64 of `seed + i * golden`: the i-th input derived from a seed."""
    mask = (1 << 64) - 1
    z = (seed + i * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def input_seeds(workload, seed, trace):
    """The inputs of one round: `seed` itself, then seeds derived from it."""
    k = TRACED_SEEDS if trace else SEEDS_PER_ROUND[workload]
    return [seed] + [mix_seed(seed, i) for i in range(1, k)]


class Run:
    """Repetitions of one workload and the checks over them."""

    def __init__(self, exe, workload, args):
        self.exe, self.workload, self.args = exe, workload, args
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        self.attempted, self.failed, self.failures = 0, 0, []

    def rep(self, seed, trace, quick):
        """One repetition in a fresh process; returns its record."""
        cmd = [self.exe, "--workload", self.workload, "--seed", str(seed), "--trace", str(trace)]
        if quick:
            cmd.append("--quick")
        if self.args.wrong_pin:
            cmd.append("--wrong-pin")
        left = self.deadline - time.monotonic()
        what = f"{self.workload} repetition at seed {seed}"
        if left <= 0:
            raise RepFailed(f"{self.workload} did not finish within {RUN_TIMEOUT_S} s")
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                  stdin=subprocess.DEVNULL, timeout=left)
        except subprocess.TimeoutExpired:
            raise RepFailed(f"{what} did not finish within {RUN_TIMEOUT_S} s in all")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RepFailed(f"{what} failed (exit {done.returncode})")
        try:
            rec = json.loads(lines[-1])
        except ValueError:
            raise RepFailed(f"{what} printed no record")
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.failures += [f"seed {seed}: {f}" for f in rec["failures"]]
        return rec

    def check(self, ok, failure):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(failure)


def slowdown(rec):
    """How much slower than nominal the host ran during a repetition."""
    # Only the self-tests' --quick repetitions are too short for a slice.
    return rec["probe_slice_s"] / PROBE_NOMINAL_S if rec["probe_slices"] else 1.0


def measure(exe, workload, args, commit, rustc):
    """Run one workload; return (report lines, result, run record)."""
    run = Run(exe, workload, args)
    # The reference repetition, checked against its pins on every run
    # whatever --seed is; traced when the run is, so that the traced-only
    # rows are pinned too. Not timed into any metric.
    run.rep(REFERENCE_SEED, args.trace, quick=True)

    seeds = input_seeds(workload, args.seed, args.trace)
    untraced, traced = [], []
    t0, round_s = time.monotonic(), 0.0
    while not untraced or time.monotonic() - t0 + round_s <= args.seconds:
        start = time.monotonic()
        for seed in seeds:
            plain = run.rep(seed, 0, args.quick)
            untraced.append(plain)
            if args.trace:
                rec = run.rep(seed, 1, args.quick)
                traced.append(rec)
                # Traced repetitions add the traced-only rows after the
                # others, so the untraced outputs are a prefix.
                run.check(rec["digests"][:len(plain["digests"])] == plain["digests"],
                          f"seed {seed}: traced outputs differ from untraced")
        round_s = time.monotonic() - start
    measured = time.monotonic() - t0

    median = statistics.median
    raw = {k: [r[k] for r in untraced] for k in ("setup_s", "run_s", "peak_rss_mb")}
    exponent = PROBE_EXPONENT[workload]
    series = {k: [r[k] / slowdown(r) ** exponent for r in untraced] for k in ("setup_s", "run_s")}
    series["peak_rss_mb"] = raw["peak_rss_mb"]
    metrics = []
    if args.trace:
        missing = []
        for m in PER_LAYER:
            name = m["name"]
            if workload not in m["on"]:
                value = 0.0
            elif name == "trace.overhead_s":
                value = median([r["run_s"] for r in traced]) - median(raw["run_s"])
            else:
                if name.endswith(".self_s"):
                    xs = [r["self_s"].get(name[:-len(".self_s")]) for r in traced]
                else:
                    xs = [r["layer"].get(name) for r in traced]
                xs = [x for x in xs if x is not None]
                if len(xs) != len(traced):
                    missing.append(name)
                value = median(xs) if xs else 0.0
            metrics.append((name, m["unit"], value))
        run.check(not missing, f"per-layer metrics not measured: {missing}")
    else:
        value = {
            "setup_s": median(series["setup_s"]),
            "run_s": median(series["run_s"]),
            # The mean: per-repetition peaks cluster at a few allocation
            # sizes, and a median jumps between them.
            "peak_rss_mb": statistics.fmean(series["peak_rss_mb"]),
        }
        metrics = [(m["name"], m["unit"], value[m["name"]]) for m in END_TO_END]

    manifest = {
        "benchmark": "dsn-perfbench", "workload": workload,
        "profile": "quick" if args.quick else "full", "seed": args.seed,
        "input_seeds": seeds, "input_seed_rule": "seed, then mix_seed(seed, i) for i = 1..",
        "reference_seed": REFERENCE_SEED, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(untraced) // len(seeds), "measured_reps": len(untraced),
        "traced_reps": len(traced), "measured_s": round(measured, 3),
        "nproc": len(os.sched_getaffinity(0)), "threads": untraced[0]["threads"],
        "commit": commit, "rustc": rustc, "spec": untraced[0]["spec"],
    }
    result = {
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, unit, v in metrics},
    }

    lines = [
        f"perfbench {workload} seed {args.seed} ({manifest['profile']} profile, trace {args.trace})",
        f"manifest {json.dumps(manifest)}",
        f"repetitions: 1 reference (quick profile, seed {REFERENCE_SEED}, pinned) + "
        f"{len(untraced)} measured ({manifest['rounds']} rounds of {len(seeds)} inputs)"
        + (f" + {len(traced)} traced" if args.trace else "") + ", each in its own process",
    ]
    lines += [f"FAILED {f}" for f in run.failures]
    lines.append(f"  {'failed_ops':<44} {run.failed:>14} count (of {run.attempted} ops attempted)")
    for name, unit, v in metrics:
        note = ""
        if name in series:
            xs = series[name]
            note = f"  over {len(xs)} repetitions [{min(xs):.4f} .. {max(xs):.4f}]"
            if name != "peak_rss_mb":
                note += f", unscaled median {median(raw[name]):.6f}"
        lines.append(f"  {name:<44} {v:>14.6f} {unit}{note}")
    if not args.trace:
        slow = [slowdown(r) for r in untraced]
        lines.append(f"  {'host slowdown (probe / nominal)':<44} {median(slow):>14.6f} x  "
                     f"[{min(slow):.4f} .. {max(slow):.4f}], times divided by its "
                     f"{exponent} power")
    if not args.trace:
        for o in untraced[0]["outputs"]:
            lines.append(f"  {o['name']:<44} {o['value']:>14.3f} {o['unit']}  (seed {args.seed})")

    keep = ("seed", "setup_s", "run_s", "probe_slices", "probe_slice_s", "peak_rss_mb")
    record = {
        "manifest": manifest, "result": result,
        "reps": [{k: r[k] for k in keep} for r in untraced],
        "traced_reps": [{k: r[k] for k in keep} for r in traced],
        "failures": run.failures,
        "spans": [{"seed": r["seed"], "spans": r["spans"]} for r in traced],
    }
    return lines, result, record


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--quick", action="store_true", help="short self-test lengths")
    p.add_argument("--wrong-pin", action="store_true", help="self-test: corrupt every pin")
    args = p.parse_args()
    if not 0 <= args.seed < 1 << 64 or args.seconds < 0:
        p.error("--seed must be in 0..2^64 and --seconds >= 0")

    exe = build()
    if exe is None:
        return 1
    commit, rustc = commit_label(), capture(["rustc", "-V"]) or "unknown"
    out_dir = os.path.join(target_dir(), "perfbench-runs")
    os.makedirs(out_dir, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for w in workloads:
        try:
            lines, results[w], record = measure(exe, w, args, commit, rustc)
        except RepFailed as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        path = os.path.join(out_dir, f"{w}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh)
        lines.append(f"run record: {path}")
        if len(workloads) == 1:
            lines.append(json.dumps(results[w]))
        print("\n".join(lines), flush=True)
    if len(workloads) > 1:
        total = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
        print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
