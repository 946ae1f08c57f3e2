"""Upper-body analysis: Gaussian background model, foreground segmentation,
1-D cloth drape profile, and pose classification by correlation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import DimensionMismatch, Frame

VAR_FLOOR = 4.0
TAU_MAHAL = 3.0
TAU_POSE = 0.9

DRAPE_GRAVITY = 2.0
DRAPE_COUPLING = 0.25
DRAPE_TOL = 0.05
DRAPE_MAX_ITERS = 2000
DRAPE_BATCH = 32  # relaxation iterations per convergence test


class TooFewFrames(ValueError):
    pass


class EmptyReferenceSet(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class BackgroundModel:
    """Per-pixel Gaussian; `sigma` is sqrt(var), taken once here rather than
    on every segmented frame."""

    mean: np.ndarray  # (h, w) float
    var: np.ndarray  # (h, w) float, >= VAR_FLOOR
    sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.sqrt(self.var))

    @property
    def shape(self):
        return self.mean.shape


@dataclass(frozen=True)
class PoseReference:
    """A labelled drape profile. Its centred profile and standard deviation
    are taken once, at construction, for every `classify_pose` call."""

    label: str
    profile: np.ndarray
    centred: np.ndarray = field(init=False, repr=False, compare=False)
    std: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.profile, float)
        object.__setattr__(self, "centred", b - b.mean())
        object.__setattr__(self, "std", b.std())


def train_background(frames: list[Frame]) -> BackgroundModel:
    """Per-pixel sample mean and population variance, variance floored at VAR_FLOOR."""
    if len(frames) < 2:
        raise TooFewFrames(f"need >= 2 frames, got {len(frames)}")
    shape = frames[0].pixels.shape
    for f in frames[1:]:
        if f.pixels.shape != shape:
            raise DimensionMismatch("training frames differ in size")
    stack = np.stack([f.pixels.astype(float) for f in frames])
    mean = stack.mean(axis=0)
    var = np.maximum(stack.var(axis=0), VAR_FLOOR)
    return BackgroundModel(mean=mean, var=var)


def segment_foreground(model: BackgroundModel, frame: Frame) -> np.ndarray:
    """Boolean mask: |I - mu| / sigma > TAU_MAHAL, then one 3x3 majority-vote pass.

    The vote keeps a pixel when at least 5 of its 9 neighbours (itself
    included; outside the frame counts as background) are foreground. The
    count is taken in uint8 as sums of shifted slices of a zero-padded copy,
    rows first, then columns.
    """
    if frame.pixels.shape != model.shape:
        raise DimensionMismatch("frame does not match background model")
    h, w = model.shape
    raw = np.zeros((h + 2, w + 2), np.uint8)
    dist = np.abs(frame.pixels.astype(float) - model.mean) / model.sigma
    np.greater(dist, TAU_MAHAL, out=raw[1:-1, 1:-1])
    rows = raw[:-2] + raw[1:-1] + raw[2:]
    return rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:] >= 5


def supports(mask: np.ndarray) -> np.ndarray:
    """Settle limit of each column, as floats: the row of its topmost
    foreground pixel, or the frame height when the column is empty. `drape`
    reads the mask through these alone."""
    h, w = mask.shape
    limits = np.full(w, float(h))
    cols = mask.any(axis=0)
    if cols.any():
        limits[cols] = mask.argmax(axis=0)[cols].astype(float)
    return limits


def drape(mask: np.ndarray) -> np.ndarray:
    """Drop a 1-node-per-column cloth onto the mask and return the settled
    profile, normalized to [0, 1] (constant profiles normalize to all zeros).

    Each iteration every node falls by DRAPE_GRAVITY until blocked by the
    topmost foreground pixel in its column, then relaxes toward its
    neighbors' average with weight DRAPE_COUPLING, never penetrating the
    support. The run stops at the first iteration that moves no node by
    DRAPE_TOL or more, or after DRAPE_MAX_ITERS. Iterations write their
    profiles into the rows of a history buffer, and that test is made once
    per DRAPE_BATCH of them.
    """
    h, w = mask.shape
    limits = supports(mask)
    # Free fall: while the level cloth stays above every support, each
    # iteration adds exactly DRAPE_GRAVITY to every node (the neighbor term
    # is 0.0), so those iterations run on one float, summed as the loop sums.
    fall, start = 0.0, 0
    lowest = limits.min()
    while start < DRAPE_MAX_ITERS and fall + DRAPE_GRAVITY <= lowest:
        fall, start = fall + DRAPE_GRAVITY, start + 1
    # row 0 holds the profile before a batch, row i the one after its i-th iteration
    history = np.full((DRAPE_BATCH + 1, w), fall)
    rows = list(history)
    padded = np.empty(w + 2)  # fallen, with each end node repeated
    fallen = padded[1:-1]
    step = np.empty(w)
    y = rows[0]
    for done in range(start, DRAPE_MAX_ITERS, DRAPE_BATCH):
        n = min(DRAPE_BATCH, DRAPE_MAX_ITERS - done)
        for prev, relaxed in zip(rows[:n], rows[1 : n + 1]):
            np.add(prev, DRAPE_GRAVITY, out=fallen)
            np.minimum(fallen, limits, out=fallen)
            padded[0], padded[-1] = fallen[0], fallen[-1]
            # relaxed = min(fallen + DRAPE_COUPLING * ((left + right) / 2 - fallen), limits)
            np.add(padded[:-2], padded[2:], out=step)
            step /= 2.0
            step -= fallen
            step *= DRAPE_COUPLING
            step += fallen
            np.minimum(step, limits, out=relaxed)
        # the first iteration that moved no node by DRAPE_TOL ends the run
        passed = np.abs(history[1 : n + 1] - history[:n]).max(axis=1) < DRAPE_TOL
        first = passed.argmax()
        if passed[first]:
            y = rows[first + 1]
            break
        history[0] = history[n]
    heights = h - y  # measure up from the frame bottom
    span = heights.max() - heights.min()
    if span == 0:
        return np.zeros(w)
    return (heights - heights.min()) / span


def classify_pose(profile: np.ndarray, refs: list[PoseReference]) -> str:
    """Label of the reference with the highest Pearson correlation if it
    reaches TAU_POSE, else Unknown."""
    if not refs:
        raise EmptyReferenceSet("no pose references")
    a = np.asarray(profile, float)
    sa = a.std()
    da = a - a.mean()
    best_label, best_r = "Unknown", -np.inf
    for ref in refs:
        if len(ref.profile) != len(profile):
            raise LengthMismatch(f"reference {ref.label} length {len(ref.profile)} != {len(profile)}")
        # Pearson correlation, 0 when either profile is constant
        r = 0.0 if sa == 0 or ref.std == 0 else float((da * ref.centred).mean() / (sa * ref.std))
        if r > best_r:
            best_label, best_r = ref.label, r
    return best_label if best_r >= TAU_POSE else "Unknown"
