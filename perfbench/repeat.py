#!/usr/bin/env python3
"""Repeatability report for the cMPI benchmark.

    python3 perfbench/repeat.py [--workloads small_msgs ...] [--report FILE]

For each workload, runs perfbench/run.py once per seed (--trace 0, for
run_seconds from BENCHMARK.json), in SETS sets of SEEDS distinct seeds. Per
end-to-end metric it reports the median and the quartile spread of every
set (Q3 - Q1 as a share of the median, from statistics.quantiles(values,
n=4)), the spread against the metric's bound from BENCHMARK.json, and how
far each later set's median moved from the first set's. It then runs the
first seed REPEATS more times and records whether the virtual-time metrics
came out byte-identical, and how far the per-operation virtual-time samples
of the first trial stay identical (the first operation, per rank, at which
two same-seed trials differ). Every failed run is listed with its message.
Prints a markdown report. The exit code is 0 only when every metric is
steady or within its bound and no set median moved by more than its bound.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402

SEEDS = 10   # runs per set, each with its own seed
SETS = 2     # sets of runs of the same code, compared with each other
REPEATS = 2  # extra runs of the first seed, for same-seed identity
VIRTUAL = [name for name, (_, clock, _) in run.END_TO_END.items() if clock == "virt"]


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    failures = [l.strip() for l in lines if "FAILED" in l]
    trial = run.build_dir() / "runs" / f"{workload}-trace0" / "trial0.json"
    samples = None
    if done.returncode == 0 and trial.is_file():
        samples = json.loads(trial.read_text())["virt_op_us"]
    return done.returncode, result, failures, samples


def first_divergence(a, b):
    """Per rank: None when the common prefix of two sample lists is
    identical, else the index of the first operation that differs."""
    out = []
    for ra, rb in zip(a, b):
        n = min(len(ra), len(rb))
        out.append(next((i for i in range(n) if ra[i] != rb[i]), None))
    return out


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS),
                    choices=run.WORKLOADS)
    ap.add_argument("--report", help="also write the report to this file")
    args = ap.parse_args()
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    cpu = "unknown CPU"
    for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    out = [f"# Repeatability of the cMPI benchmark",
           "",
           f"Host: {cpu}, {os.cpu_count()} hardware threads. "
           f"{SETS} sets of {SEEDS} seeds per workload, "
           f"{seconds} s per run, `python3 perfbench/repeat.py`.",
           "",
           "Spread = (Q3 - Q1) / median over one set's runs; the benchmark "
           "wants it below a third of the bound. Shift = how much worse set "
           "k's median is than set 1's (negative = better).",
           ""]
    steady = True
    for workload in args.workloads:
        sets, failures = [], []
        failed_runs = 0
        for k in range(SETS):
            values = {name: [] for name in run.END_TO_END}
            for i in range(SEEDS):
                seed = 1 + k * SEEDS + i
                code, result, failed, _ = one_run(workload, seed, seconds)
                failures += [f"seed {seed}: {f}" for f in failed]
                if code != 0:
                    failed_runs += 1
                    failures.append(f"seed {seed}: exit code {code}, "
                                    "left out of the set")
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {k + 1} seed {seed}: " + ", ".join(
                    f"{n}={fmt(v[-1])}" for n, v in values.items()), file=sys.stderr)
            sets.append(values)

        out += [f"## {workload}", "",
                "| metric | bound | " + " | ".join(
                    f"set {k + 1} median | set {k + 1} spread" for k in range(SETS))
                + " | shift | verdict |",
                "|---|---|" + "---|---|" * SETS + "---|---|"]
        for name in run.END_TO_END:
            bound = bounds[name]["bound"]
            cells, verdict = [], "steady"
            medians = []
            for values in sets:
                v = values[name]
                if len(v) < 2:
                    cells += ["-", "-"]
                    verdict = "no data"
                    continue
                spread = stats.quartile_spread(v)
                medians.append(statistics.median(v))
                cells += [fmt(medians[-1]), f"{spread:.4f}"]
                if spread >= bound / 3:
                    verdict = "within bound" if spread <= bound else "UNSTEADY"
            better = bounds[name]["better"]
            shifts = [stats.worse_by(medians[0], m, better) for m in medians[1:]]
            if not all(stats.within_bound(medians[0], m, better, bound)
                       for m in medians[1:]):
                verdict = "MEDIAN MOVED"
            if verdict not in ("steady", "within bound"):
                steady = False
            out.append(f"| {name} | {bound} | " + " | ".join(cells) + " | "
                       + (", ".join(f"{s:+.4f}" for s in shifts) or "-")
                       + f" | {verdict} |")

        first_seed = 1
        runs = [one_run(workload, first_seed, seconds) for _ in range(REPEATS + 1)]
        for code, _, failed, _ in runs:
            failures += [f"seed {first_seed} (repeat): {f}" for f in failed]
            if code != 0:
                failed_runs += 1
                failures.append(f"seed {first_seed} (repeat): exit code {code}")
        metric_sets = [tuple(r[1]["metrics"][n]["value"] for n in VIRTUAL)
                       for r in runs if r[0] == 0 and r[1]["metrics"]]
        identical = len(metric_sets) > 1 and len(set(metric_sets)) == 1
        out += ["", f"Same-seed repeats (seed {first_seed}, {len(runs)} runs): "
                f"virtual-time metrics byte-identical: **{'yes' if identical else 'no'}**."]
        for n, name in enumerate(VIRTUAL):
            out.append(f"- {name}: " + ", ".join(repr(m[n]) for m in metric_sets))
        samples = [r[3] for r in runs if r[3] is not None]
        for j in range(1, len(samples)):
            div = first_divergence(samples[0], samples[j])
            desc = ", ".join(
                f"rank {q}: " + ("identical" if d is None else f"differs from op {d}")
                + f" ({min(len(samples[0][q]), len(samples[j][q]))} common)"
                for q, d in enumerate(div) if samples[0][q])
            out.append(f"- trial 0 samples, run 1 vs run {j + 1}: {desc}")
        out.append(f"- failed runs: {failed_runs} of {SETS * SEEDS + len(runs)}")
        for f in failures:
            out.append(f"- failure: {f}")
        out.append("")

    text = "\n".join(out) + "\n"
    print(text)
    if args.report:
        pathlib.Path(args.report).write_text(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
