"""Command-line interface: run episodes, query the oracle, analyze stored
frame sequences, and emit learning curves.

Exit codes: 0 ok, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import face, harness
from .config import ConfigError, check_output_path, load_config
from .frames import read_pgm


def _cmd_run(args) -> int:
    overrides = {
        "seed": args.seed,
        "steps": args.steps,
        "mode": args.mode,
        "out_dir": args.out,
        "dump_frames": args.dump_frames or None,
    }
    cfg = load_config(args.config, overrides)
    log, learner = harness.run_episode(cfg)
    summary = harness.save_episode(cfg, log, learner)
    print(f"episode: {log.decisions} decisions over {len(log.rows)} frames -> {cfg.out_dir}")
    print(f"cumulative reward {summary['cumulative_reward']}, "
          f"final-window attention {summary['final_window_attention']:.3f}, "
          f"greedy agreement {summary['greedy_agreement']:.0%}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    policy, values = harness.oracle_policy(cfg.profile, cfg.learning.gamma)
    print("state_routine,attending,optimal_action,value")
    for (routine, att), action in policy.items():
        print(f"{routine.value},{int(att)},{action.value},{values[(routine, att)]:.6f}")
    return 0


def _cmd_analyze(args) -> int:
    if not os.path.isdir(args.frames):
        raise ConfigError("--frames", f"{args.frames} is not a directory")
    names = sorted(f for f in os.listdir(args.frames) if f.endswith(".pgm") and f.startswith("face_"))
    if not names:
        raise ConfigError("--frames", f"no face_*.pgm frames in {args.frames}")
    out_path = os.path.join(args.frames, "analysis.csv") if args.out is None else args.out
    paths = [os.path.join(args.frames, name) for name in names]
    check_output_path("--out", out_path, file=True, inputs=paths)
    faces = face.FaceTracker()
    prev_frame = None
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["frame", "face", "symmetry", "edge_offset", "orientation", "jerk", "motion", "expression"])
        for name, path in zip(names, paths):
            frame = read_pgm(path)
            cues = faces.observe(frame)
            if cues is None:
                writer.writerow([name, 0, "", "", "NoFace", "", "", ""])
                prev_frame = frame
                continue
            rect, s, e, label, jerk = cues
            motion = expression = ""
            if prev_frame is not None and prev_frame.same_size(frame):
                cf, whole = face.flow_features(prev_frame, frame, rect)
                motion = face.classify_motion(whole, cf)
                expression = face.classify_expression(cf)
            writer.writerow([name, 1, f"{s:.5f}", f"{e:.5f}", label, f"{jerk:.4f}", motion, expression])
            prev_frame = frame
    print(f"wrote {out_path}")
    return 0


def _cmd_plot(args) -> int:
    if not os.path.isfile(args.log):
        raise ConfigError("--log", f"{args.log} is not a file")
    plt = None
    if args.out.lower().endswith(".png"):
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            # a .png curve falls back to the CSV of the same name, checked as --out
            args.out = args.out[:-4] + ".csv"
            print("matplotlib unavailable, degrading to CSV", file=sys.stderr)
    check_output_path("--out", args.out, file=True, inputs=[args.log])
    rewards = []
    with open(args.log, newline="") as f:
        for row in csv.DictReader(f):
            if int(row["decision"]):
                rewards.append(int(row["reward"]))
    window = harness.CURVE_WINDOW
    points = list(zip(range(0, len(rewards), window), harness.attention_windows(rewards)))
    if plt is not None:
        xs, ys = zip(*points)
        plt.figure(figsize=(6, 4))
        plt.plot(xs, ys, marker="o")
        plt.xlabel("decision tick")
        plt.ylabel(f"attention fraction ({window}-decision window)")
        plt.title("learning curve")
        plt.savefig(args.out, dpi=120)
    else:
        harness.write_csv(args.out, ["decision", "attention_fraction"], points)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="imime", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded closed-loop episode")
    run.add_argument("--config", default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--steps", type=int, default=None)
    run.add_argument("--mode", choices=["labels", "pixels"], default=None)
    run.add_argument("--dump-frames", action="store_true")
    run.add_argument("--out", default=None)
    run.set_defaults(func=_cmd_run)

    oracle = sub.add_parser("oracle", help="print the optimal policy for the true viewer profile")
    oracle.add_argument("--config", default=None)
    oracle.set_defaults(func=_cmd_oracle)

    analyze = sub.add_parser("analyze", help="run the vision pipeline on stored PGM frames")
    analyze.add_argument("--frames", required=True)
    analyze.add_argument("--out", default=None)
    analyze.set_defaults(func=_cmd_analyze)

    plot = sub.add_parser("plot", help="emit the learning curve from an episode log")
    plot.add_argument("--log", required=True)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
