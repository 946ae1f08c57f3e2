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
    """Per-pixel Gaussian. `lo` and `hi` are the uint8 bounds of each
    pixel's background values, so that |p - mean| / sqrt(var) > TAU_MAHAL
    exactly when p < lo or p > hi. Both are taken once here, with TAU_MAHAL
    as it is when the model is built, rather than on every segmented frame."""

    mean: np.ndarray  # (h, w) float
    var: np.ndarray  # (h, w) float, >= VAR_FLOOR
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = np.sqrt(self.var)
        reach = TAU_MAHAL * sigma
        # On each side of the mean the test's distance only grows, so the
        # test keeps the values up to one integer and flags the rest. That
        # integer is mean ± reach rounded, or one step nearer the mean when
        # the test flags it: float rounding moves the test's threshold far
        # less than half a grey level. Rounding stops at the mean's nearest
        # integer on that side, which covers a reach under half a level.
        # Exact for a mean in 0..255 and TAU_MAHAL >= 0.
        top = np.maximum(np.rint(self.mean + reach), np.ceil(self.mean))
        top -= (top - self.mean) / sigma > TAU_MAHAL
        bottom = np.minimum(np.rint(self.mean - reach), np.floor(self.mean))
        bottom += (self.mean - bottom) / sigma > TAU_MAHAL
        object.__setattr__(self, "lo", np.clip(bottom, 0, 255).astype(np.uint8))
        object.__setattr__(self, "hi", np.clip(top, 0, 255).astype(np.uint8))

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
    """Per-pixel sample mean and population variance, variance floored at VAR_FLOOR.

    One pass over the frames, with the bytes `np.mean` and `np.var` give over
    their float stack: the uint32 sums are exact, so dividing them by n is the
    mean, and the squared deviations are added frame by frame, the order in
    which numpy reduces a stack's first axis.
    """
    if len(frames) < 2:
        raise TooFewFrames(f"need >= 2 frames, got {len(frames)}")
    shape = frames[0].pixels.shape
    total = np.zeros(shape, np.uint32)
    for f in frames:
        if f.pixels.shape != shape:
            raise DimensionMismatch("training frames differ in size")
        total += f.pixels
    mean = total / len(frames)
    squares = np.zeros(shape)
    dev = np.empty(shape)
    for f in frames:
        np.subtract(f.pixels, mean, out=dev)
        dev *= dev
        squares += dev
    var = np.maximum(squares / len(frames), VAR_FLOOR)
    return BackgroundModel(mean=mean, var=var)


def segment_foreground(model: BackgroundModel, frame: Frame) -> np.ndarray:
    """Boolean mask: |I - mu| / sigma > TAU_MAHAL, then one 3x3 majority-vote pass.

    The test is the model's two uint8 compares, I < lo or I > hi. The vote
    keeps a pixel when at least 5 of its 9 neighbours (itself included;
    outside the frame counts as background) are foreground. The count is
    taken in uint8 as sums of shifted slices of a zero-padded copy, rows
    first, then columns.
    """
    if frame.pixels.shape != model.shape:
        raise DimensionMismatch("frame does not match background model")
    h, w = model.shape
    raw = np.zeros((h + 2, w + 2), np.uint8)
    inner = raw[1:-1, 1:-1]
    np.less(frame.pixels, model.lo, out=inner)
    inner |= frame.pixels > model.hi
    rows = raw[:-2] + raw[1:-1] + raw[2:]
    return rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:] >= 5


def supports(mask: np.ndarray) -> np.ndarray:
    """Settle limit of each column, as floats: the row of its topmost
    foreground pixel, or the frame height when the column is empty. A stack
    of masks (..., h, w) gives a stack of limits (..., w), the input of
    `drape`."""
    top = mask.argmax(axis=-2)
    limits = top.astype(float)
    # argmax gives row 0 for an empty column too; the first row tells them apart
    limits[(top == 0) & ~mask[..., 0, :]] = mask.shape[-2]
    return limits


def _free_fall(lowest: float) -> tuple[float, int]:
    """Level and iteration count of a cloth falling freely above supports
    whose highest point is at row `lowest`."""
    fall, start = 0.0, 0
    while start < DRAPE_MAX_ITERS and fall + DRAPE_GRAVITY <= lowest:
        fall, start = fall + DRAPE_GRAVITY, start + 1
    return fall, start


def drape(limits: np.ndarray) -> np.ndarray:
    """Drop a 1-node-per-column cloth onto the column settle limits of a
    mask (see `supports`) and return the settled profile, measured up from
    its lowest node and normalized to [0, 1] (constant profiles normalize
    to all zeros). A stack of limits (k, w) gives a stack of profiles
    (k, w), each the one its limits alone give.

    Each iteration every node falls by DRAPE_GRAVITY until blocked by its
    column's limit, then relaxes toward its neighbors' average with weight
    DRAPE_COUPLING, never penetrating the limit. The run stops at the first
    iteration that moves no node by DRAPE_TOL or more, or after
    DRAPE_MAX_ITERS. Iterations write their profiles into the rows of a
    history buffer, and that test is made once per DRAPE_BATCH of them.
    """
    w = limits.shape[-1]
    cloth_limits = limits.reshape(-1, w)
    k = len(cloth_limits)
    # Free fall: while the level cloth stays above every support, each
    # iteration adds exactly DRAPE_GRAVITY to every node (the neighbor term
    # is 0.0), so those iterations run on one float per cloth, summed as the
    # loop sums.
    falls, starts = zip(*map(_free_fall, cloth_limits.min(axis=1).tolist()))
    budgets = [DRAPE_MAX_ITERS - start for start in starts]  # iterations left to each cloth
    # The cloths lie end to end in one buffer, each between two end cells
    # that repeat its end nodes, so each step is one call over all of them.
    # Row 0 of `history` holds the cloths before a batch, row i the ones
    # after its i-th iteration; `cloths` leaves the end cells out.
    history = np.zeros((DRAPE_BATCH + 1, k * (w + 2)))
    cloths = history.reshape(DRAPE_BATCH + 1, k, w + 2)[:, :, 1:-1]
    cloths[0] = np.array(falls)[:, None]
    settled = cloths[0].copy()
    cell_limits = np.zeros((k, w + 2))  # the limits, and 0.0 at the end cells
    cell_limits[:, 1:-1] = cloth_limits
    cell_limits = cell_limits.reshape(-1)
    fallen, step = np.zeros((2, k * (w + 2)))
    left, right, sums = fallen[:-2], fallen[2:], step[1:-1]
    firsts, lasts = fallen[0 :: w + 2], fallen[w + 1 :: w + 2]
    first_nodes, last_nodes = fallen[1 :: w + 2], fallen[w :: w + 2]
    # 0-d arrays: numpy takes them faster than Python floats, with the same bits
    gravity, half, coupling = np.array(DRAPE_GRAVITY), np.array(0.5), np.array(DRAPE_COUPLING)
    rows = list(history)
    moving = [i for i in range(k) if budgets[i] > 0]
    for done in range(0, max(budgets), DRAPE_BATCH):
        n = min(DRAPE_BATCH, max(budgets) - done)
        for prev, relaxed in zip(rows[:n], rows[1 : n + 1]):
            np.add(prev, gravity, out=fallen)
            np.minimum(fallen, cell_limits, out=fallen)
            firsts[...], lasts[...] = first_nodes, last_nodes
            # relaxed = min(fallen + DRAPE_COUPLING * ((left + right) / 2 - fallen), limits),
            # with / 2 as the same exact * 0.5
            np.add(left, right, out=sums)
            step *= half
            step -= fallen
            step *= coupling
            step += fallen
            np.minimum(step, cell_limits, out=relaxed)
        # each cloth stops at the first iteration that moved no node by
        # DRAPE_TOL, or at the last one its budget allows
        passed = np.abs(cloths[1 : n + 1] - cloths[:n]).max(axis=2) < DRAPE_TOL
        for i in list(moving):
            run = passed[: budgets[i] - done, i]
            first = run.argmax()
            if run[first] or budgets[i] - done <= n:
                settled[i] = cloths[first + 1 if run[first] else len(run), i]
                moving.remove(i)
        if not moving:
            break
        history[0] = history[n]
    heights = -settled  # measure up from the lowest settled node
    low = heights.min(axis=1, keepdims=True)
    span = heights.max(axis=1, keepdims=True) - low
    profiles = np.zeros((k, w))
    np.divide(heights - low, span, out=profiles, where=span != 0)
    return profiles.reshape(limits.shape)


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
