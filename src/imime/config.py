"""Episode configuration: flat `key = value` text files with bracketed
section headers. The str/int/float/bool fields of the config classes are
the keys, with their types and defaults; see README."""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .attention import FusionConfig
from .behavior import BehaviorConfig, Routine
from .face import FACE_THRESHOLD
from .learning import PolicyConfig
from .viewer import SceneConfig, SceneError, ViewerProfile, default_profile


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class EpisodeConfig:
    mode: str = "labels"  # labels | pixels
    steps: int = 1000
    frame_rate: float = 10.0
    decision_period: float = 2.0
    seed: int = 1
    out_dir: str = "runs/episode"
    dump_frames: bool = False
    learning: PolicyConfig = field(default_factory=PolicyConfig)
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    profile: ViewerProfile = field(default_factory=default_profile)
    scene: SceneConfig = field(default_factory=SceneConfig)

    @property
    def frames_per_decision(self) -> int:
        ratio = self.decision_period * self.frame_rate
        n = round(ratio) if math.isfinite(ratio) else 0
        if n < 1 or abs(ratio - n) > 1e-9:
            raise ConfigError(
                "episode.decision_period",
                f"decision period must be a positive multiple of the frame period (got ratio {ratio})",
            )
        return n

    def validate(self) -> "EpisodeConfig":
        if self.mode not in ("labels", "pixels"):
            raise ConfigError("episode.mode", f"unknown mode {self.mode!r}")
        # a background as bright as a face reads as one face filling the frame
        if self.mode == "pixels" and not self.scene.bg_intensity < FACE_THRESHOLD:
            raise ConfigError(
                "scene.bg_intensity",
                f"must be below the face threshold {FACE_THRESHOLD} in pixel mode (got {self.scene.bg_intensity})",
            )
        # label mode renders no frames to dump
        if self.dump_frames and self.mode != "pixels":
            raise ConfigError("episode.dump_frames", f"needs pixel mode (mode is {self.mode})")
        if self.steps < 1:
            raise ConfigError("episode.steps", "steps must be >= 1")
        if self.seed < 0:
            raise ConfigError("episode.seed", f"seed must be >= 0 (got {self.seed})")
        if not (math.isfinite(self.frame_rate) and self.frame_rate > 0.0):
            raise ConfigError("episode.frame_rate", f"must be > 0 and finite (got {self.frame_rate})")
        _ = self.frames_per_decision
        learning, profile = self.learning, self.profile
        # `not` around each range keeps NaN out too
        if not 0.0 <= learning.gamma < 1.0:
            raise ConfigError("learning.gamma", f"gamma must be in [0, 1) (got {learning.gamma})")
        if not learning.tol > 0.0:
            raise ConfigError("learning.tol", f"tol must be > 0 (got {learning.tol})")
        if learning.max_sweeps < 1:
            raise ConfigError("learning.max_sweeps", f"max_sweeps must be >= 1 (got {learning.max_sweeps})")
        # Q values lie in [0, 1/(1 - gamma)], so a warm start's first residual
        # is at most 1/(1 - gamma) + gamma * tol, and each sweep shrinks it by
        # gamma: gamma**(max_sweeps - 1) * (1/(1 - gamma) + gamma * tol) must
        # be below tol, tested in an equivalent form defined for tol = inf
        # (past 2**64 sweeps the float power is 0 for every gamma < 1)
        g, k = learning.gamma, min(learning.max_sweeps, 2**64)
        if not g ** (k - 1) / (1.0 - g) < learning.tol * (1.0 - g**k):
            raise ConfigError(
                "learning.gamma",
                f"value iteration may not converge to tol {learning.tol} within max_sweeps {k} (got gamma {g})",
            )
        for key, value in (
            ("learning.epsilon", learning.epsilon),
            ("profile.compliance", profile.compliance),
            ("profile.erratic_rate", profile.erratic_rate),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(key, f"must be in [0, 1] (got {value})")
        p = profile.p_star
        bad = np.argwhere(~((p >= 0.0) & (p <= 1.0)))
        if len(bad):
            i, j, l = bad[0]
            names = [r.value.lower() for r in profile.routines]
            att = "attending" if j else "notattending"
            raise ConfigError(
                f"p_star.{names[i]}.{att}.{names[l]}", f"probability must be in [0, 1] (got {p[i, j, l]})"
            )
        if not profile.routines:
            raise ConfigError("profile.routines", "no routines")
        self._validate_behavior_and_fusion()
        return self

    def _validate_behavior_and_fusion(self) -> None:
        behavior, fusion = self.behavior, self.fusion
        # durations become frame counts, so they must stay finite in frames
        for key, value, positive in (
            ("behavior.t_idle", behavior.t_idle, False),
            ("behavior.t_ponder", behavior.t_ponder, False),
            ("behavior.t_resp", behavior.t_resp, True),
            ("behavior.t_feedback", behavior.t_feedback, False),
        ):
            if not ((value > 0.0 if positive else value >= 0.0) and math.isfinite(value * self.frame_rate)):
                bound = "> 0" if positive else ">= 0"
                raise ConfigError(key, f"must be {bound} seconds and finite at the frame rate (got {value})")
        if not 0.0 <= behavior.r_lo < 1.0:
            raise ConfigError("behavior.r_lo", f"must be in [0, 1) (got {behavior.r_lo})")
        if not behavior.r_lo < behavior.r_hi <= 1.0:
            raise ConfigError("behavior.r_hi", f"must be in (r_lo, 1] (got {behavior.r_hi}, r_lo {behavior.r_lo})")
        if fusion.k_erratic < 1:
            raise ConfigError("fusion.k_erratic", f"must be >= 1 (got {fusion.k_erratic})")
        if not (math.isfinite(fusion.tau_jerk) and fusion.tau_jerk > 0.0):
            raise ConfigError("fusion.tau_jerk", f"must be > 0 and finite (got {fusion.tau_jerk})")


def _ini_keys(cls, **ini_names) -> dict[str, tuple[str, type]]:
    """INI key -> (field name, type) for each str/int/float/bool field of a
    config class; `ini_names` gives the fields whose key has another name."""
    types = typing.get_type_hints(cls)
    return {
        ini_names.get(f.name, f.name): (f.name, types[f.name])
        for f in fields(cls)
        if types[f.name] in (str, int, float, bool)
    }


# INI section -> {key: (field name, type)}, built once: the config classes'
# fields are the only definition of the keys, their types and defaults.
# `profile.routines` is a comma-separated list of routine names; [p_star]
# keys are checked as they are parsed.
SECTIONS = {
    "episode": _ini_keys(EpisodeConfig, out_dir="out"),
    "learning": _ini_keys(PolicyConfig),
    "behavior": _ini_keys(BehaviorConfig),
    "fusion": _ini_keys(FusionConfig),
    "profile": {"routines": ("routines", Routine), **_ini_keys(ViewerProfile)},
    "scene": _ini_keys(SceneConfig),
}


def _check_keys(parser) -> None:
    for key in parser.defaults():
        raise ConfigError(f"DEFAULT.{key}", "unknown key")
    for section in parser.sections():
        if section == "p_star":
            continue
        if section not in SECTIONS:
            raise ConfigError(section, "unknown section")
        for key in parser.options(section):
            if key not in SECTIONS[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")


def _parse_routines(text: str, key: str) -> tuple[Routine, ...]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    try:
        routines = tuple(Routine(n) for n in names)
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from exc
    # a routine listed twice would be two states and actions with one name
    for i, r in enumerate(routines):
        if r in routines[:i]:
            raise ConfigError(key, f"routine {r.value} listed twice")
    return routines


def _read(parser, section) -> dict:
    """The fields a section sets, by name; a key it leaves out keeps its
    field's default."""
    values = {}
    for key, (name, cast) in SECTIONS[section].items():
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        if cast is Routine:
            values[name] = _parse_routines(raw, f"{section}.{key}")
            continue
        try:
            values[name] = parser.getboolean(section, key) if cast is bool else cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}", f"bad value {raw!r}") from exc
    return values


def _attending(att: str) -> int:
    if att not in ("attending", "notattending"):
        raise ValueError(f"expected attending or notattending, got {att!r}")
    return int(att == "attending")


def _load_profile(parser) -> ViewerProfile:
    base = default_profile()
    values = _read(parser, "profile")
    routines = values.setdefault("routines", base.routines)
    n = len(routines)
    p = base.p_star.copy() if routines == base.routines else np.full((n, 2, n), 0.5)
    profile = ViewerProfile(p_star=p, **values)
    if parser.has_section("p_star"):
        for key, raw in parser.items("p_star"):
            parts = key.split(".")
            try:
                value = float(raw)
                if len(parts) == 2:  # <attending|notattending>.<action>
                    att, action = parts
                    j = _attending(att)
                    l = profile.index(Routine(_canonical(action, routines)))
                    profile.p_star[:, j, l] = value
                elif len(parts) == 3:  # <state_routine>.<att>.<action>
                    sr, att, action = parts
                    i = profile.index(Routine(_canonical(sr, routines)))
                    j = _attending(att)
                    l = profile.index(Routine(_canonical(action, routines)))
                    profile.p_star[i, j, l] = value
                else:
                    raise ValueError("expected att.action or routine.att.action")
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"p_star.{key}", str(exc)) from exc
    return profile


def _canonical(name: str, routines) -> str:
    # configparser lowercases option names; match case-insensitively
    for r in routines:
        if r.value.lower() == name.lower():
            return r.value
    return name


def load_config(path: str | None = None, overrides: dict | None = None) -> EpisodeConfig:
    # values are literal: no `%` interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    if path is not None:
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot parse {path}: {exc}") from exc
        if not read:
            raise ConfigError("config", f"cannot read {path}")
    _check_keys(parser)

    episode = _read(parser, "episode")
    learning = PolicyConfig(**_read(parser, "learning"))
    behavior = BehaviorConfig(**_read(parser, "behavior"))
    fusion = FusionConfig(**_read(parser, "fusion"))
    profile = _load_profile(parser)
    try:
        scene = SceneConfig(**_read(parser, "scene"))
    except SceneError as exc:
        raise ConfigError(f"scene.{exc.key}", exc.message) from exc
    cfg = EpisodeConfig(**episode, learning=learning, behavior=behavior, fusion=fusion, profile=profile, scene=scene)

    if overrides:
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
    return cfg.validate()
