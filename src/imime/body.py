"""Upper-body analysis: Gaussian background model, foreground segmentation,
1-D cloth drape profile, and pose classification by correlation."""

from __future__ import annotations

import math
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


def train_background(frames: list[Frame], var_floor: float = VAR_FLOOR) -> BackgroundModel:
    """Per-pixel sample mean and population variance, variance floored."""
    if len(frames) < 2:
        raise TooFewFrames(f"need >= 2 frames, got {len(frames)}")
    shape = frames[0].pixels.shape
    for f in frames[1:]:
        if f.pixels.shape != shape:
            raise DimensionMismatch("training frames differ in size")
    stack = np.stack([f.pixels.astype(float) for f in frames])
    mean = stack.mean(axis=0)
    var = np.maximum(stack.var(axis=0), var_floor)
    return BackgroundModel(mean=mean, var=var)


def segment_foreground(model: BackgroundModel, frame: Frame, tau_mahal: float = TAU_MAHAL) -> np.ndarray:
    """Boolean mask: |I - mu| / sigma > tau, then one 3x3 majority-vote pass.

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
    np.greater(dist, tau_mahal, out=raw[1:-1, 1:-1])
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


def drape(
    mask: np.ndarray,
    gravity: float = DRAPE_GRAVITY,
    coupling: float = DRAPE_COUPLING,
    tol: float = DRAPE_TOL,
    max_iters: int = DRAPE_MAX_ITERS,
) -> np.ndarray:
    """Drop a 1-node-per-column cloth onto the mask and return the settled
    profile, normalized to [0, 1] (constant profiles normalize to all zeros).

    Each iteration every node falls by `gravity` until blocked by the topmost
    foreground pixel in its column, then relaxes toward its neighbors'
    average with weight `coupling`, never penetrating the support. The run
    stops at the first iteration that moves no node by `tol` or more, or
    after `max_iters`. Iterations write their profiles into the rows of a
    history buffer, and that test is made once per DRAPE_BATCH of them.
    """
    h, w = mask.shape
    limits = supports(mask)
    # Free fall: while the level cloth stays above every support, each
    # iteration adds exactly `gravity` to every node (the neighbor term is
    # 0.0), so those iterations run on one float, summed as the loop sums.
    fall, start = 0.0, 0
    lowest = limits.min()
    if gravity > 0 and math.isfinite(coupling):
        while start < max_iters and fall + gravity <= lowest and not abs(fall + gravity - fall) < tol:
            fall, start = fall + gravity, start + 1
    # row 0 holds the profile before a batch, row i the one after its i-th iteration
    history = np.full((DRAPE_BATCH + 1, w), fall)
    rows = list(history)
    padded = np.empty(w + 2)  # fallen, with each end node repeated
    fallen = padded[1:-1]
    step = np.empty(w)
    y = rows[0]
    for done in range(start, max_iters, DRAPE_BATCH):
        n = min(DRAPE_BATCH, max_iters - done)
        for prev, relaxed in zip(rows[:n], rows[1 : n + 1]):
            np.add(prev, gravity, out=fallen)
            np.minimum(fallen, limits, out=fallen)
            padded[0], padded[-1] = fallen[0], fallen[-1]
            # relaxed = min(fallen + coupling * ((left + right) / 2 - fallen), limits)
            np.add(padded[:-2], padded[2:], out=step)
            step /= 2.0
            step -= fallen
            step *= coupling
            step += fallen
            np.minimum(step, limits, out=relaxed)
        # the first iteration that moved no node by tol ends the run; NaN never passes
        passed = np.abs(history[1 : n + 1] - history[:n]).max(axis=1) < tol
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


def classify_pose(
    profile: np.ndarray,
    refs: list[PoseReference],
    tau_pose: float = TAU_POSE,
) -> str:
    """Label of the reference with the highest Pearson correlation, or Unknown."""
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
    return best_label if best_r >= tau_pose else "Unknown"
