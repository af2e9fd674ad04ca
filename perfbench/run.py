#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the `perfbench` harness
(perfbench/Cargo.toml, a package of its own) into `$CARGO_TARGET_DIR`
(default `.bench_build`), generates the workload's inputs from `--seed`,
runs it, checks the outputs and prints one JSON object as the last line
of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` measures end-to-end metrics: it repeats the workload, one
process per repetition, until `--seconds` are used, and reports each
metric's mean over the repetitions (memory: the median). `--trace 1` makes one untraced and
two traced runs (1 and 2 worker threads) and reports the per-layer
metrics. Lines before the last one are for people: the environment, and
each metric with its unit and quartiles. The whole result, with every
repetition, is also written to `<target>/perfbench-results/`.

Output checks count into `attempted` / `failed`; `fail_share` is
`failed / attempted`. Exit codes: 0 with a result, 1 when the harness
cannot be built or a run crashes (no result is printed), 2 on bad flags.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("flash_crowd", "churn_growth", "paper_validation")

# Worker threads each workload's timed runs use. One each: the timings
# are process CPU seconds, and a second thread on a few shared cores
# measures the host's scheduler. The traced run still times exchange at
# 1 and 2 threads for `exchange.speedup_2t`.
THREADS = {"flash_crowd": 1, "churn_growth": 1, "paper_validation": 1}

# Set-ups per process; the harness reports their median. Small swarms set
# up in about a millisecond, so they repeat more to steady the median.
SETUPS = {"flash_crowd": 3, "churn_growth": 41, "paper_validation": 41}

# A trace-0 run draws a fresh input set from --seed for every repetition,
# so it covers as many trajectories as fit in the run, except
# that repetition REPEAT_AT runs the first set again, so the exact check
# has a pair to compare. A run makes at least MIN_REPETITIONS.
REPEAT_AT = 2
MIN_REPETITIONS = REPEAT_AT + 1

STAGES = ("maintain", "bootstrap", "prune", "establish", "exchange", "depart", "sample")

# Bounds of the behaviour checks.
CHURN_GROWTH_FACTOR = 5.0  # the §6 run must end at ≥ 5× its start population
CHURN_TAIL_ENTROPY = 0.05  # ... with the tail entropy near 0 (one club)

END_TO_END_UNITS = {
    "setup_s": "s",
    "sim_s": "s",
    "peer_rounds_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def per_layer_units():
    """Unit of every per-layer metric, in report order."""
    units = {}
    for stage in STAGES:
        units[f"stage.{stage}.self_s"] = "s"
        units[f"stage.{stage}.calls"] = "count"
        units[f"stage.{stage}.p50_ms"] = "ms"
        units[f"stage.{stage}.ptail_ms"] = "ms"
        units[f"stage.{stage}.ptail_pct"] = "%"
    units.update({
        "round.self_s": "s",
        "maintain.tracker_peers": "count",
        "maintain.ns_per_peer": "ns",
        "exchange.connection_pairs": "count",
        "exchange.ns_per_pair": "ns",
        "establish.ns_per_comparison": "ns",
        "maintain.handout_entries": "count",
        "establish.candidate_comparisons": "count",
        "exchange.bitfield_words": "count",
        "exchange.piece_transfers": "count",
        "prune.pairs_checked": "count",
        "depart.departures": "count",
        "bootstrap.injections": "count",
        "store.slab_probes": "count",
        "establish.success_ratio": "ratio",
        "exchange.transfer_ratio": "ratio",
        "exchange.speedup_2t": "x",
        "obs.telemetry_s": "s",
        "obs.doctor_s": "s",
        "obs.heartbeat_s": "s",
        "obs.share": "ratio",
        "obs.bytes": "B",
        "model.step_s": "s",
        "model.walker_s": "s",
        "model.walker_steps": "count",
        "model.efficiency_s": "s",
        "model.fixed_point_iters": "count",
        "trace.overhead": "ratio",
    })
    return units


PER_LAYER_UNITS = per_layer_units()


class HarnessError(Exception):
    """The harness could not be built or a repetition did not finish."""


# ---------------------------------------------------------------------
# Output checks. Each check judges behaviour, not bytes, and returns
# (name, passed). A check that cannot read what it needs fails; it never
# raises past `run_checks`.
# ---------------------------------------------------------------------

def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _model_check(facts, fp):
    eta = facts["model_eta_at_k"]
    return _finite(eta, facts["model_bootstrap_end"], facts["model_efficient_end"],
                   facts["model_completion"]) and 0.0 < eta <= 1.0


# Per workload: (check name, predicate over the record's facts and
# fingerprint). Every workload also gets the model check.
BEHAVIOUR_CHECKS = {
    "flash_crowd": [
        ("flash_crowd.all_complete", lambda f, fp: f["final_population"] == 0
         and fp["departures"] == f["initial_population"]),
        ("flash_crowd.before_round_cap", lambda f, fp: fp["rounds"] < f["round_cap"]),
        ("flash_crowd.invariants", lambda f, fp: f["invariants_hold"] is True),
    ],
    "churn_growth": [
        ("churn_growth.population_grew", lambda f, fp: f["final_population"]
         >= CHURN_GROWTH_FACTOR * f["initial_population"]),
        ("churn_growth.tail_entropy_near_zero", lambda f, fp: _finite(f["tail_entropy"])
         and f["tail_entropy"] <= CHURN_TAIL_ENTROPY),
    ],
    "paper_validation": [
        ("paper_validation.doctor_clean", lambda f, fp: f["doctor_checks"] > 0
         and f["doctor_violations"] == 0),
        ("paper_validation.phases_ordered", lambda f, fp: f["telemetry_readable"] is True
         and f["observers_completed"] > 0 and f["phase_order_violations"] == 0),
        ("paper_validation.observed_boundaries_finite", lambda f, fp: _finite(
            f["observed_bootstrap_end"], f["observed_efficient_end"], f["observed_completion"])),
    ],
}


def _guarded(name, check):
    """Runs one check; a record it cannot read fails it."""
    try:
        return (name, check() is True)
    except (KeyError, TypeError, ValueError, AttributeError):
        return (name, False)


def behaviour_checks(workload, record):
    """The behaviour checks of one repetition's record."""
    checks = BEHAVIOUR_CHECKS[workload] + [("model.predictions_finite", _model_check)]
    return [_guarded(name, lambda p=predicate: bool(p(record["facts"], record["fingerprint"])))
            for name, predicate in checks]


def fingerprint_check(name, records):
    """Exact check: every record carries the same fingerprint."""
    return _guarded(name, lambda: len(records) > 0 and all(
        r["fingerprint"] == records[0]["fingerprint"] for r in records))


def repeat_check(records):
    """Exact check: repetitions of one input set agree, and at least one
    input set was repeated."""
    def check():
        groups = {}
        for r in records:
            groups.setdefault(r["run"]["seed"], []).append(r)
        repeated = [g for g in groups.values() if len(g) > 1]
        return len(repeated) > 0 and all(
            r["fingerprint"] == g[0]["fingerprint"] for g in repeated for r in g)
    return _guarded("fingerprint.repeatable", check)


def run_checks(workload, records, exact):
    """All checks over the records: behaviour per record plus the exact
    fingerprint checks `exact` (a list of (name, records))."""
    results = []
    for record in records:
        results.extend(behaviour_checks(workload, record))
    for name, group in exact:
        results.append(fingerprint_check(name, group))
    return results


# ---------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------

# A run's timings are means over its repetitions, and its rate is its
# total simulated work over its total simulation time: the more work a
# run measures, the less one slow spell of a shared host moves it. Such
# spells come in modes that last from one process to minutes, which
# makes the median of a run's few repetitions jump with how many of them
# a spell hit, and its minimum jump with whether any missed one. Over
# three sets of ten 40-s runs per workload on a 2-vCPU Xeon, the worst
# spread (IQR / median) of sim_s was 17% with the mean, 20% with the
# median and 21% with the minimum. Memory is not slowed by the host and
# keeps the median.
def end_to_end(records):
    """Every end-to-end metric of the run, with the median, quartiles and
    count of its per-repetition values."""
    timing = [r["timing"] for r in records]
    samples = {
        "setup_s": [t["setup_s"] for t in timing],
        "sim_s": [t["sim_s"] for t in timing],
        "peer_rounds_per_s": [t["peer_rounds"] / t["sim_s"] for t in timing],
        "peak_rss_mib": [t["peak_rss_mib"] for t in timing],
    }
    value = {
        "setup_s": statistics.fmean(samples["setup_s"]),
        "sim_s": statistics.fmean(samples["sim_s"]),
        "peer_rounds_per_s": sum(t["peer_rounds"] for t in timing) / sum(t["sim_s"] for t in timing),
        "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
    }
    summary = {}
    for name, values in samples.items():
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        summary[name] = {"value": value[name], "unit": END_TO_END_UNITS[name],
                         "median": statistics.median(values), "q1": q1, "q3": q3,
                         "n": len(values)}
    return summary


def per_layer(default, one_thread, two_threads, untraced):
    """Per-layer metrics of the traced run at the workload's own thread
    count, plus the 2-thread exchange speed-up, the tracing overhead and
    the CPU time of one model step in the untraced run."""
    layers = dict(default["layers"])
    exchange_1t = one_thread["layers"]["stage.exchange.self_s"]
    exchange_2t = two_threads["layers"]["stage.exchange.self_s"]
    layers["exchange.speedup_2t"] = exchange_1t / exchange_2t if exchange_2t > 0 else 0.0
    layers["trace.overhead"] = default["timing"]["sim_s"] / untraced["timing"]["sim_s"] - 1.0
    layers["model.step_s"] = untraced["timing"]["model_s"]
    return {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def result_line(checks, metrics):
    """The last stdout line: exactly the four keys of the contract."""
    failed = sum(1 for _, passed in checks if not passed)
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }


# ---------------------------------------------------------------------
# Build and run.
# ---------------------------------------------------------------------

def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    """Builds the harness; returns the binary's path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    binary = target_dir() / "release" / "perfbench"
    if done.returncode != 0 or not binary.is_file():
        raise HarnessError(f"building the harness failed (exit {done.returncode})")
    return binary


def repetition(binary, workload, seed, threads, scratch_root, traced=False, spans=None):
    """Runs one repetition in a fresh process and returns its record."""
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--threads", str(threads),
           "--setups", str(SETUPS[workload]), "--scratch", str(scratch)]
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                              check=False)
    except subprocess.TimeoutExpired as err:
        raise HarnessError(f"{workload} seed {seed} did not finish in time") from err
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise HarnessError(f"{workload} seed {seed} exited {done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as err:
        raise HarnessError(f"{workload} seed {seed} printed no record") from err


def environment():
    """Where the numbers came from: CPU, cores, compiler, revision."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def first_line(cmd):
        # A checkout without .git must not describe some enclosing repo.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=30, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return "unavailable"
        return done.stdout.strip().splitlines()[0] if done.returncode == 0 and done.stdout.strip() \
            else "unavailable"

    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rustc": first_line(["rustc", "--version"]),
        "git_describe": first_line(["git", "describe", "--always", "--dirty", "--tags"]),
    }


def input_seed(seed, j):
    """The j-th input set a run draws: fixed by `seed` and `j` alone."""
    return int.from_bytes(hashlib.sha256(f"perfbench/{seed}/{j}".encode()).digest()[:6], "big")


def repetition_input(seed, rep):
    """The input set of the rep-th repetition: a fresh one each time,
    except that repetition REPEAT_AT runs the first one again."""
    if rep == REPEAT_AT:
        return input_seed(seed, 0)
    return input_seed(seed, rep if rep < REPEAT_AT else rep - 1)


def measure(binary, workload, seed, seconds, scratch_root):
    """Trace 0: repetitions until `seconds` are used, and at least
    MIN_REPETITIONS of them."""
    records, durations = [], []
    started = time.monotonic()
    while True:
        t0 = time.monotonic()
        sub = repetition_input(seed, len(records))
        records.append(repetition(binary, workload, sub, THREADS[workload], scratch_root))
        durations.append(time.monotonic() - t0)
        used = time.monotonic() - started
        if len(records) >= MIN_REPETITIONS and used + statistics.median(durations) > seconds:
            break
    checks = run_checks(workload, records, [])
    checks.append(repeat_check(records))
    return records, checks, end_to_end(records)


def trace(binary, workload, seed, scratch_root, spans_dir):
    """Trace 1: one untraced run, then traced runs at 1 and 2 threads, all
    on the first input set."""
    threads = THREADS[workload]
    seed = input_seed(seed, 0)
    untraced = repetition(binary, workload, seed, threads, scratch_root)
    traced = {}
    for t in (1, 2):
        spans = spans_dir / f"{workload}-seed{seed}-t{t}.spans.jsonl"
        traced[t] = repetition(binary, workload, seed, t, scratch_root, traced=True, spans=spans)
    records = [untraced, traced[1], traced[2]]
    checks = run_checks(workload, records, [
        ("fingerprint.traced_matches_untraced", [untraced, traced[threads]]),
        ("fingerprint.threads_1_matches_2", [traced[1], traced[2]]),
    ])
    return records, checks, per_layer(traced[threads], traced[1], traced[2], untraced)


def print_human(workload, seed, trace_on, env, checks, metrics):
    print(f"perfbench {workload} seed={seed} trace={int(trace_on)} "
          + " ".join(f"{k}={v!r}" for k, v in env.items()))
    for name, m in metrics.items():
        extra = (f"  [median {m['median']:.6g}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
                 if "n" in m else "")
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{extra}")
    failed = [name for name, passed in checks if not passed]
    share = len(failed) / len(checks) if checks else 0.0
    print(f"  {'fail_share':<34} {share:>14.6g} ratio  [{len(failed)}/{len(checks)} checks failed]")
    for name in failed:
        print(f"  FAILED {name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be ≥ 0 and --seconds > 0")

    try:
        binary = build()
        target = target_dir()
        scratch_root = target / "perfbench-scratch"
        spans_dir = target / "perfbench-spans"
        results_dir = target / "perfbench-results"
        for d in (scratch_root, spans_dir, results_dir):
            d.mkdir(parents=True, exist_ok=True)
        if args.trace:
            records, checks, metrics = trace(binary, args.workload, args.seed, scratch_root, spans_dir)
        else:
            records, checks, metrics = measure(binary, args.workload, args.seed, args.seconds,
                                               scratch_root)
    except HarnessError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    env = environment()
    line = result_line(checks, metrics)
    full = dict(line, workload=args.workload, seed=args.seed, trace=args.trace, environment=env,
                checks=[{"name": n, "passed": p} for n, p in checks], summary=metrics,
                records=records)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=1) + "\n")
    print_human(args.workload, args.seed, args.trace, env, checks, metrics)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
