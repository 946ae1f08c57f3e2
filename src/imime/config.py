"""Episode configuration: flat `key = value` text files with bracketed
section headers. The str/int/float/bool fields of the config classes are
the keys, with their types and defaults; see README."""

from __future__ import annotations

import configparser
import math
import os
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .behavior import BehaviorConfig, Routine
from .learning import MAX_SWEEPS, PolicyConfig
from .viewer import SceneConfig, ViewerProfile, default_profile


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


def check_output_path(key: str, path: str, file: bool = False, inputs=()) -> None:
    """Raise a ConfigError naming `key` unless `path` can be made as a
    directory, or with `file` written as a file in an existing directory
    that is none of the existing files `inputs` (writing it would truncate
    an input before it is read). Outputs are written after the work, so
    callers check them before it."""
    if not path:
        raise ConfigError(key, f"must name an output {'file' if file else 'directory'}")
    if "\0" in path:
        raise ConfigError(key, f"{path!r} contains a NUL byte")
    if file and os.path.isdir(path):
        raise ConfigError(key, f"{path} is a directory")
    if inputs and os.path.exists(path):
        out = os.stat(path)
        for name in inputs:
            st = os.stat(name)
            if (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino):
                raise ConfigError(key, f"would overwrite the input {name}")
    head = parent = os.path.dirname(path) if file else path
    while head and not os.path.exists(head):  # the nearest existing part
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigError(key, f"{head} exists and is not a directory")
    if file and head != parent:
        raise ConfigError(key, f"directory {parent} does not exist")
    # the names still to be made, each within the limit of the file system they go on
    name_max = os.pathconf(head or ".", "PC_NAME_MAX")
    for name in path[len(head) :].split(os.sep):
        if len(os.fsencode(name)) > name_max:
            raise ConfigError(key, f"name {name[:16]}... is longer than {name_max} bytes")


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
        check_output_path("episode.out", self.out_dir)
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
        # one standard deviation past the whole intensity range already turns
        # every frame into clipped noise; far larger values overflow the draws
        sigma = self.scene.noise_sigma
        if not 0.0 <= sigma <= 255.0:
            raise ConfigError("scene.noise_sigma", f"must be in [0, 255] (got {sigma})")
        learning, profile, behavior = self.learning, self.profile, self.behavior
        # `not` around each range keeps NaN out too
        if not 0.0 <= learning.gamma < 1.0:
            raise ConfigError("learning.gamma", f"gamma must be in [0, 1) (got {learning.gamma})")
        if not learning.tol > 0.0:
            raise ConfigError("learning.tol", f"tol must be > 0 (got {learning.tol})")
        # Q values lie in [0, 1/(1 - gamma)], so a warm start's first residual
        # is at most 1/(1 - gamma) + gamma * tol, and each sweep shrinks it by
        # gamma: gamma**(k - 1) * (1/(1 - gamma) + gamma * tol) must be below
        # tol after k = MAX_SWEEPS sweeps, tested in an equivalent form
        # defined for tol = inf
        g, k = learning.gamma, MAX_SWEEPS
        if not g ** (k - 1) / (1.0 - g) < learning.tol * (1.0 - g**k):
            raise ConfigError(
                "learning.gamma",
                f"value iteration may not converge to tol {learning.tol} within {k} sweeps (got gamma {g})",
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
        return self


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


ATTENDING = {"notattending": 0, "attending": 1}  # [p_star] key part -> attending index


def _load_profile(parser) -> ViewerProfile:
    base = default_profile()
    values = _read(parser, "profile")
    routines = values.setdefault("routines", base.routines)
    n = len(routines)
    p = base.p_star.copy() if routines == base.routines else np.full((n, 2, n), 0.5)
    profile = ViewerProfile(p_star=p, **values)
    # configparser lowercases option names, so routine names match case-insensitively
    index = {r.value.lower(): i for i, r in enumerate(routines)}
    if parser.has_section("p_star"):
        for key, raw in parser.items("p_star"):
            parts = key.split(".")
            try:
                value = float(raw)
                if len(parts) not in (2, 3):
                    raise ValueError("expected att.action or routine.att.action")
                # a two-part key sets the cell in every state routine
                *state, att, action = parts
                i = index[state[0]] if state else slice(None)
                profile.p_star[i, ATTENDING[att], index[action]] = value
            except ValueError as exc:
                raise ConfigError(f"p_star.{key}", str(exc)) from exc
            except KeyError as exc:
                raise ConfigError(f"p_star.{key}", f"unknown name {exc}") from exc
    return profile


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
    profile = _load_profile(parser)
    scene = SceneConfig(**_read(parser, "scene"))
    cfg = EpisodeConfig(**episode, learning=learning, behavior=behavior, profile=profile, scene=scene)

    if overrides:
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, value)
    return cfg.validate()
