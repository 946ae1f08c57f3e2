"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: each listed public
function of a layer is replaced, at the place its caller looks the name up,
by a wrapper that records one span (name, parent, start, end). Nothing in
`src/imime` is edited. The tracer assumes one thread, which is how the
benchmark drives the program.
"""

from __future__ import annotations

import time
from array import array

from imime import attention, behavior, body, cli, config, face, harness, learning, viewer

# span name -> the (owner, attribute) places its callers look it up. Names
# bound by `from` imports need a wrapper in the importing module too:
# `viewer` calls `drape` and `cli` calls `load_config` that way.
SPANS = {
    "viewer.frame_update": [(viewer, "frame_update")],
    "viewer.step_viewer": [(viewer, "step_viewer")],
    "viewer.synthesize_face_frame": [(viewer, "synthesize_face_frame")],
    "viewer.synthesize_body_frame": [(viewer, "synthesize_body_frame")],
    "face.detect": [(face.BrightnessBlobDetector, "detect")],
    "face.block_flow": [(face, "block_flow")],
    "face.symmetry_score": [(face, "symmetry_score")],
    "face.edge_cog_offset": [(face, "edge_cog_offset")],
    "face.classify_expression": [(face, "classify_expression")],
    "face.classify_motion": [(face, "classify_motion")],
    "body.segment_foreground": [(body, "segment_foreground")],
    "body.drape": [(body, "drape"), (viewer, "drape")],
    "body.classify_pose": [(body, "classify_pose")],
    "attention.evaluate": [(attention.AttentionEvaluator, "evaluate")],
    "behavior.frame_step": [(behavior.BehaviorEngine, "frame_step")],
    "learning.update_values": [(learning, "update_values")],
    "learning.choose": [(learning.Learner, "choose")],
    "harness.process": [(harness.PixelPipeline, "process")],
    "harness.run_episode": [(harness, "run_episode")],
    "harness.metrics": [(harness, "metrics")],
    "harness.oracle_policy": [(harness, "oracle_policy")],
    "harness.save_episode": [(harness, "save_episode")],
    "config.load_config": [(config, "load_config"), (cli, "load_config")],
    "cli.main": [(cli, "main")],
}


class Tracer:
    """Records spans while `active`; `install` wraps every name in SPANS."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.sweeps = 0  # value-iteration sweeps of every traced update_values
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name_id, (name, places) in enumerate(SPANS.items()):
            for owner, attr in places:
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name_id, original, count_sweeps=name == "learning.update_values"))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name_id: int, fn, count_sweeps: bool):
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.name_of)
            self.name_of.append(name_id)
            self.parent_of.append(self._stack[-1] if self._stack else -1)
            self.end_ns.append(0)
            self._stack.append(idx)
            self.start_ns.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_ns[idx] = clock()
                self._stack.pop()
            if count_sweeps:
                self.sweeps += len(result.residuals)
            return result

        return traced

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time in ms); self time is a span's duration
        minus the time its direct children cover."""
        n = len(self.name_of)
        child_ns = [0] * n
        for i in range(n):
            parent = self.parent_of[i]
            if parent >= 0:
                child_ns[parent] += self.end_ns[i] - self.start_ns[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            name_id = self.name_of[i]
            calls[name_id] += 1
            self_ns[name_id] += self.end_ns[i] - self.start_ns[i] - child_ns[i]
        return {name: (calls[k], self_ns[k] / 1e6) for k, name in enumerate(self.names)}

    def write_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.name_of)):
                f.write(f"{i},{self.parent_of[i]},{self.names[self.name_of[i]]},{self.start_ns[i]},{self.end_ns[i]}\n")
