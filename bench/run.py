"""Closed-loop benchmark of the imime episode loop.

    python3 bench/run.py --workload pixels|learning|sessions --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The run measures whole rounds of sessions until `--seconds` of
session time have passed, checks every session's outputs, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
are per-layer call counts and self times from a traced re-run of the same
rounds, plus the tracing overhead against the untraced run.
"""

import time

PROCESS_T0 = time.perf_counter()  # set-up is timed from here, before the imports

import argparse
import json
import os
import resource
import sys
from array import array

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")


class Totals:
    """Raw timings of one measured phase; `scale` expresses them on the
    reference core, each frame and session by the probes taken around it."""

    def __init__(self):
        self.frames = self.decisions = self.sessions = 0
        self.attempted = self.failed = 0
        self.raw_busy = 0.0  # seconds inside timed sessions, probes excluded
        self.frame_raw = array("d")  # ms per frame
        self.frame_probe = array("i")  # latest probe at each frame's start
        self.session_raw: list[tuple[float, int, int]] = []  # (ms, first and last probe index)
        self.setup_raw: tuple[float, int] | None = None  # (s from process start to the first frame, probe)
        self.problems: list[str] = []

    def scale(self, factors: list[float]) -> None:
        f = np.array(factors)
        self.frame_ms = np.frombuffer(self.frame_raw) * f[np.frombuffer(self.frame_probe, dtype=np.int32)]
        self.session_ms = np.array([ms * f[lo : hi + 1].mean() for ms, lo, hi in self.session_raw])
        self.busy = self.session_ms.sum() / 1e3
        self.setup_s = self.setup_raw[0] * f[self.setup_raw[1]]
        self.speed_factor = self.busy / self.raw_busy


def measure(workload, clock, seed: int, seconds: float | None = None, rounds: int | None = None, tracer=None):
    """Run whole rounds until `seconds` of raw session time or `rounds`
    rounds; returns (Totals, rounds run). A tracer records the sessions, not
    the checks."""
    rng = np.random.default_rng(seed)
    totals = Totals()
    clock.new_phase()
    done = 0
    while (totals.raw_busy < seconds) if rounds is None else (done < rounds):
        for session in workload.round(rng):
            clock.reset()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            session.run()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            if len(clock.starts) != session.frames:
                raise RuntimeError(f"frame clock saw {len(clock.starts)} frames of {session.frames}")
            if totals.setup_raw is None:
                totals.setup_raw = (clock.starts[0] - PROCESS_T0, clock.probe_of[0])
            busy = t1 - t0 - clock.probe_wall
            totals.raw_busy += busy
            totals.session_raw.append((busy * 1e3, clock.probe_of[0], clock.probe_of[-1]))
            totals.frame_raw.extend((end - start) * 1e3 for start, end in zip(clock.starts, clock.ends[1:]))
            totals.frame_probe.extend(clock.probe_of[:-1])
            totals.frames += session.frames
            totals.decisions += session.decisions
            totals.sessions += 1
            failed, problems = session.check()
            totals.attempted += session.operations
            totals.failed += failed
            totals.problems += problems
        done += 1
    totals.scale(clock.factors())
    return totals, done


def end_to_end(totals: Totals) -> dict:
    """Every time is on the reference core (see FrameClock)."""
    return {
        "setup_s": (float(totals.setup_s), "s"),
        "frames_per_s": (totals.frames / totals.busy, "frames/s"),
        "frame_ms_p50": (float(np.percentile(totals.frame_ms, 50)), "ms"),
        "frame_ms_p90": (float(np.percentile(totals.frame_ms, 90)), "ms"),
        "decisions_per_s": (totals.decisions / totals.busy, "decisions/s"),
        "sessions_per_s": (totals.sessions / totals.busy, "sessions/s"),
        "session_ms_p50": (float(np.percentile(totals.session_ms, 50)), "ms"),
        "session_ms_p90": (float(np.percentile(totals.session_ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, untraced: Totals, traced: Totals) -> dict:
    metrics = {}
    for name, (calls, self_ms) in tracer.summary().items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
    metrics["learning.update_values.sweeps"] = (tracer.sweeps, "count")
    # both phases ran the same rounds; compare them at the reference core speed
    metrics["trace.untraced_s"] = (untraced.busy, "s")
    metrics["trace.traced_s"] = (traced.busy, "s")
    metrics["trace.overhead_pct"] = ((traced.busy / untraced.busy - 1.0) * 100.0, "%")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pixels", "learning", "sessions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "imime", "harness.py")):
        print(f"no imime sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import FrameClock, Workload

    out_root = os.path.join(OUT_DIR, args.workload)
    os.makedirs(out_root, exist_ok=True)
    workload = Workload(args.workload, out_root)
    clock = FrameClock()
    clock.install()
    totals, rounds = measure(workload, clock, args.seed, seconds=args.seconds / (2 if args.trace else 1))
    runs = [totals]
    if args.trace:
        from tracer import Tracer

        # the clock goes back on top, so its probes stay outside every span
        clock.remove()
        tracer = Tracer()
        tracer.install()
        clock.install()
        traced, _ = measure(workload, clock, args.seed, rounds=rounds, tracer=tracer)
        clock.remove()
        tracer.remove()
        tracer.write_csv(os.path.join(OUT_DIR, f"trace_{args.workload}.csv"))
        runs.append(traced)
        metrics = per_layer(tracer, totals, traced)
    else:
        metrics = end_to_end(totals)
        clock.remove()

    problems = [p for run in runs for p in run.problems] + workload.oracle_problems()
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    print(
        f"{args.workload}: {rounds} rounds, {totals.sessions} sessions, {totals.frames} frames "
        f"({len(totals.frame_ms)} frame samples, {len(totals.session_ms)} session samples) "
        f"in {totals.raw_busy:.2f} s of session time; speed factor {totals.speed_factor:.4f} "
        f"from {len(clock.probes)} probes"
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
