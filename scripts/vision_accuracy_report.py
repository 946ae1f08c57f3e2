#!/usr/bin/env python3
"""Measure the vision pipeline against synthesized ground truth: orientation
accuracy over a yaw sweep and pose classification over the silhouette set.

Usage:
    python3 scripts/vision_accuracy_report.py --frames 1000 --noise 2.0
"""

import argparse
import sys

import numpy as np

from imime import body, face, harness, viewer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=1000)
    ap.add_argument("--noise", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    scene = viewer.SceneConfig(noise_sigma=args.noise)
    rng = np.random.default_rng(args.seed)
    faces = face.FaceTracker()

    yaws = np.linspace(-45.0, 45.0, args.frames)
    confusion = {}
    for yaw in yaws:
        frame = viewer.synthesize_face_frame(viewer.ViewerState(yaw=float(yaw)), scene, rng)
        cues = faces.observe(frame)
        if cues is None:
            continue
        key = (viewer.true_orientation(yaw), cues[3])
        confusion[key] = confusion.get(key, 0) + 1

    total = sum(confusion.values())
    correct = sum(v for (t, p), v in confusion.items() if t == p)
    print(f"orientation: {correct}/{total} = {correct / total:.3f} over yaw in [-45, 45] deg")
    for (t, p), v in sorted(confusion.items()):
        mark = "" if t == p else "  <-- miss"
        print(f"  truth {t:8s} -> {p:8s}: {v}{mark}")

    frames = [viewer.synthesize_body_frame(None, scene, rng) for _ in range(harness.BACKGROUND_TRAINING_FRAMES)]
    bg = body.train_background(frames)
    refs = viewer.build_pose_references()
    print("\npose classification (noisy silhouettes):")
    for label in viewer.POSE_LABELS:
        frame = viewer.synthesize_body_frame(label, scene, rng)
        mask = body.segment_foreground(bg, frame)
        got = body.classify_pose(body.drape(body.supports(mask)), refs)
        print(f"  {label:15s} -> {got:15s} {'ok' if got == label else 'MISS'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
