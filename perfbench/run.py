#!/usr/bin/env python3
"""cMPI benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload small_msgs --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the library and the benchmark program
from source (CMake, into $CARGO_TARGET_DIR or .bench_build), runs the
benchmark's self-test, then runs the workload as several trials, each a
fresh process with its own Universe: the set-up is measured once per trial.
Every trial checks every payload, status and reduction. A trial that dies
or hangs fails the run: it is reported with its message, counted as a
failed operation and never retried.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced trials on the same seed and prints the per-layer metrics, the ledger
and the tracing overhead; span statistics come from each traced trial's
span file. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every checked output was correct.

Clocks: "virt" metrics are virtual time of the modelled CXL platform.
"host cpu" metrics (setup_s, host_us_per_op_p50) are what the simulator
costs on this machine, as process CPU time: unlike wall time, it does not
count time the simulator's threads waited for a CPU taken by other load,
so it stays comparable on a shared host. Per-layer span times are host
wall time (steady clock).
"""

import argparse
import csv
import hashlib
import json
import os
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOADS = ("small_msgs", "large_msgs", "halo_step")
TRIALS = 5          # untraced trials in a --trace 0 run
TRACED_PAIRS = 3    # (untraced, traced) trial pairs in a --trace 1 run
TRIAL_GRACE_S = 20  # a trial longer than its budget plus this is killed

# name -> (unit, clock, meaning)
END_TO_END = {
    "setup_s": ("s", "host cpu",
                "median over trials of the process CPU time from constructing "
                "the Universe until every Session (and window) is ready"),
    "virt_op_us_p50": ("us", "virt", "median virtual time per operation"),
    "virt_op_us_p99": ("us", "virt", "99th percentile virtual time per operation"),
    "virt_msgs_per_s": ("1/s", "virt", "messages (or RMA transfers) per virtual second"),
    "virt_mb_per_s": ("MB/s", "virt", "payload MB per virtual second"),
    "host_us_per_op_p50": ("us", "host cpu",
                           "median over rounds of the process CPU time per operation, "
                           "less the benchmark's own output checks"),
    "peak_rss_mb": ("MB", "host", "largest peak resident memory of a trial process"),
}

OPERATION = {
    "small_msgs": "one-way ping-pong message, ranks 0<->2; rates from the fan-in phase",
    "large_msgs": "one window of 4 messages plus its ack, per pair (0->2, 1->3)",
    "halo_step": "one halo step (fence epoch, puts, get, allreduce) per rank",
}

PER_LAYER = {
    "runtime.universe_ctor.host_ms": "ms",
    "runtime.session_create.host_ms": "ms",
    "runtime.barrier.virt_us_p50": "us",
    "p2p.send.calls": "count", "p2p.send.virt_us_p50": "us", "p2p.send.host_us_p50": "us",
    "p2p.recv.calls": "count", "p2p.recv.virt_us_p50": "us", "p2p.recv.host_us_p50": "us",
    "p2p.isend.calls": "count", "p2p.isend.virt_us_p50": "us", "p2p.isend.host_us_p50": "us",
    "p2p.irecv.calls": "count", "p2p.irecv.virt_us_p50": "us", "p2p.irecv.host_us_p50": "us",
    "p2p.wait_all.virt_us_p50": "us",
    "p2p.unexpected_ratio": "ratio",
    "p2p.match_probe_len_p50": "count",
    "p2p.cells_per_reap_p50": "count",
    "p2p.doorbell_spurious_ratio": "ratio",
    "p2p.doorbell_coalesce_ratio": "ratio",
    "p2p.publish_cells_per_batch": "count",
    "p2p.eager_share": "ratio",
    "p2p.rendezvous_fallback_ratio": "ratio",
    "p2p.rdvz_slot_reuse_ratio": "ratio",
    "p2p.rdvz_rts_to_fin_us_p50": "us",
    "ring.enqueues_per_msg": "count",
    "ring.cells_per_publish_p50": "count",
    "ring.occupancy_hwm": "count",
    "ring.retransmit_cells": "count",
    "cxl.cache_hit_ratio": "ratio",
    "cxl.flush_lines_per_msg": "count",
    "cxl.flush_writeback_ratio": "ratio",
    "cxl.dev_read_wait_us_sum": "us",
    "cxl.dev_write_wait_us_sum": "us",
    "cxl.bulk_bytes_per_payload_byte": "ratio",
    "rma.put.calls": "count", "rma.put.virt_us_p50": "us", "rma.put.host_us_p50": "us",
    "rma.get.calls": "count", "rma.get.virt_us_p50": "us", "rma.get.host_us_p50": "us",
    "rma.fence.virt_us_p50": "us",
    "rma.write_local.virt_us_p50": "us",
    "rma.read_local.virt_us_p50": "us",
    "rma.put_bytes": "bytes",
    "rma.get_bytes": "bytes",
    "coll.allreduce.virt_us_p50": "us",
    "coll.allreduce.virt_us_p99": "us",
    "coll.allreduce.host_us_p50": "us",
    "obs.trace_overhead_host_pct": "%",
    "obs.trace_overhead_virt_pct": "%",
    "ledger.unattributed_virt_us": "us",
}


# Per-layer metrics taken from benchmark-side spans: "<call>.calls",
# "<call>.virt_us_p<N>" and "<call>.host_us_p<N>".
SPAN_STAT = re.compile(
    r"(?P<call>.+)\.(?:(?P<calls>calls)|(?P<clock>virt|host)_us_p(?P<p>\d+))$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root.resolve() / "perfbench"


def build(bdir):
    """Configure (once) and build the benchmark; returns the binary dir."""
    if not (SRC_DIR / "CMakeLists.txt").is_file():
        raise RuntimeError(f"cMPI sources not found at {SRC_DIR}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CMPI_")}
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "cmpi_perfbench",
                  "perfbench_selftest", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    selftest = subprocess.run([str(bdir / "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
    if selftest.returncode != 0:
        log(selftest.stdout[-4000:])
        raise RuntimeError("benchmark self-test failed")
    return bdir


def provenance(bdir, args):
    sha = "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC_DIR.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    build_type = "unknown"
    cache = bdir / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "build_type": build_type, "nproc": os.cpu_count(),
            "machine": platform.machine(), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace}


def span_metrics(rows, timed_spans, phase_virt_ns):
    """Span statistics of one traced trial. `rows` are the span file's
    rows (dicts), each rank's in its own order; only a rank's spans in
    [first, end) of `timed_spans[rank]` count. Returns every SPAN_STAT
    metric of PER_LAYER (0 for a call the workload never makes) and
    ledger.unattributed_virt_us: per rank, the phase's elapsed virtual time
    minus the sum of its top-level spans, in absolute value, summed."""
    durations = {}  # call -> {"virt": [us], "host": [us]}
    top_virt_ns = [0.0] * len(timed_spans)
    seen = [0] * len(timed_spans)
    for row in rows:
        rank = int(row["rank"])
        index = seen[rank]
        seen[rank] += 1
        first, end = timed_spans[rank]
        if not first <= index < end:
            continue
        virt_ns = float(row["virt_end_ns"]) - float(row["virt_start_ns"])
        host_ns = float(row["host_end_ns"]) - float(row["host_start_ns"])
        d = durations.setdefault(row["call"], {"virt": [], "host": []})
        d["virt"].append(virt_ns / 1e3)
        d["host"].append(host_ns / 1e3)
        if int(row["parent"]) < 0:
            top_virt_ns[rank] += virt_ns
    out = {}
    for name in PER_LAYER:
        m = SPAN_STAT.match(name)
        if not m:
            continue
        d = durations.get(m["call"], {"virt": [], "host": []})
        if m["calls"]:
            out[name] = len(d["virt"])
        else:
            values = d[m["clock"]]
            out[name] = stats.percentile(values, int(m["p"])) if values else 0.0
    out["ledger.unattributed_virt_us"] = sum(
        abs(phase - top) for phase, top in zip(phase_virt_ns, top_virt_ns)) / 1e3
    return out


def run_trial(binary, outdir, args, index, seconds, traced):
    """One trial process. Returns its result dict, or None plus the reason
    when the process died or produced no result."""
    tag = f"trial{index}{'-traced' if traced else ''}"
    out = outdir / f"{tag}.json"
    spans = outdir / f"{tag}.spans.csv"
    out.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--trial", str(index), "--seconds", repr(seconds), "--out", str(out)]
    if traced:
        cmd += ["--trace", "--spans", str(spans),
                "--metrics", str(outdir / f"{tag}.metrics.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("CMPI_")}
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=seconds + TRIAL_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"{tag}: no result after {seconds + TRIAL_GRACE_S:.0f} s, killed"
    if proc.returncode != 0 or not out.is_file():
        lines = [l for l in err.splitlines() if l.strip()]
        reason = " | ".join(lines[-3:]) or "no message"
        return None, f"{tag}: exit code {proc.returncode}: {reason}"
    result = json.loads(out.read_text())
    if traced:
        with spans.open(newline="") as f:
            result["layers"].update(span_metrics(
                csv.DictReader(f), result["timed_spans"], result["phase_virt_ns"]))
    return result, None


def end_to_end(trials):
    virt = [x for t in trials for rank in t["virt_op_us"] for x in rank]
    rate_s = sum(t["rate_virt_s"] for t in trials)
    tail = stats.tail_percentile(len(virt))
    return {
        "setup_s": statistics.median(t["setup_s"] for t in trials),
        "virt_op_us_p50": stats.percentile(virt, 50),
        "virt_op_us_p99": stats.percentile(virt, 99),
        "virt_msgs_per_s": sum(t["rate_msgs"] for t in trials) / rate_s,
        "virt_mb_per_s": sum(t["rate_bytes"] for t in trials) / rate_s / 1e6,
        "host_us_per_op_p50": stats.percentile(
            [x for t in trials for x in t["host_cpu_us_per_op"]], 50),
        "peak_rss_mb": max(t["peak_rss_kb"] for t in trials) / 1024.0,
    }, {"samples": len(virt), "tail_percentile": tail,
        "tail_virt_us": stats.percentile(virt, tail) if tail else None}


def per_layer(untraced, traced):
    """Medians over traced trials, plus the tracing overhead: traced minus
    untraced trials of the same inputs."""
    layers = {name: statistics.median(t["layers"][name] for t in traced)
              for name in PER_LAYER if not name.startswith("obs.")}
    plain, _ = end_to_end(untraced)
    spans, _ = end_to_end(traced)
    layers["obs.trace_overhead_host_pct"] = 100.0 * (
        spans["host_us_per_op_p50"] / plain["host_us_per_op_p50"] - 1)
    layers["obs.trace_overhead_virt_pct"] = 100.0 * (
        spans["virt_op_us_p50"] / plain["virt_op_us_p50"] - 1)
    return layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    try:
        bdir = build(build_dir())
    except (RuntimeError, OSError) as err:
        log(f"perfbench: {err}")
        return 2
    binary = bdir / "cmpi_perfbench"
    # One directory per workload and mode, overwritten by each run, so that
    # span files do not pile up across seeds.
    outdir = bdir / "runs" / f"{args.workload}-trace{args.trace}"
    outdir.mkdir(parents=True, exist_ok=True)
    prov = provenance(bdir, args)

    if args.trace:
        plan = [(i, flag) for i in range(TRACED_PAIRS) for flag in (False, True)]
    else:
        plan = [(i, False) for i in range(TRIALS)]
    budget = args.seconds / len(plan)
    started = time.monotonic()
    done = {False: [], True: []}
    attempted = failed = 0
    failures, errors = [], []
    for index, traced in plan:
        result, reason = run_trial(binary, outdir, args, index, budget, traced)
        if result is None:
            attempted += 1
            failed += 1
            failures.append(reason)
            continue
        done[traced].append(result)
        attempted += result["attempted"]
        failed += result["failed"]
        errors += result["errors"]
        prov.setdefault("compiler", result["compiler"])
    wall_s = time.monotonic() - started

    complete = done[False] and (done[True] or not args.trace)
    correct = bool(complete) and not errors and not failures
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for key, value in prov.items():
        print(f"  provenance.{key} = {value}")
    print(f"  operation = {OPERATION[args.workload]}")
    if done[False]:
        print(f"  params = {json.dumps(done[False][0]['params'])}")
    print(f"  trials = {len(plan)} x {budget:.3f} s budget, {wall_s:.1f} s wall")
    if done[False]:
        print("  setup wall time per trial (s, host steady clock) = " + ", ".join(
            f"{t['setup_wall_s']:.6f}" for t in done[False]))
    for reason in failures:
        print(f"  FAILED trial: {reason}")
    for err in errors[:16]:
        print(f"  FAILED check: {err}")
    print(f"  failed_ops = {failed}/{attempted} "
          f"({failed / max(attempted, 1):.6f} of operations attempted)")
    print(f"  output check: {'PASS' if correct else 'FAIL'}")

    metrics = {}
    if complete:
        e2e, tail = end_to_end(done[False])
        if args.trace:
            for name, value in per_layer(done[False], done[True]).items():
                metrics[name] = {"value": value, "unit": PER_LAYER[name]}
        else:
            for name, value in e2e.items():
                metrics[name] = {"value": value, "unit": END_TO_END[name][0]}
        print(f"  samples = {tail['samples']} operations; highest percentile with "
              f"ten samples beyond it: p{tail['tail_percentile']} = "
              f"{tail['tail_virt_us']} us (virt)")
        for name, value in e2e.items():
            unit, clock, meaning = END_TO_END[name]
            print(f"  {name} = {value:.6g} {unit} [{clock}] {meaning}")
        if args.trace:
            for name in PER_LAYER:
                print(f"  {name} = {metrics[name]['value']:.6g} {PER_LAYER[name]}")
    summary = {"correct": correct, "attempted": max(attempted, 1),
               "failed": failed, "metrics": metrics}
    (outdir / "summary.json").write_text(json.dumps(
        {"provenance": prov, "failures": failures, "errors": errors, **summary},
        indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
