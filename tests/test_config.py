from pathlib import Path

import contextlib
import copy
import io
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imime import cli, config, harness, learning
from imime.behavior import Routine
from imime.config import ConfigError, EpisodeConfig, load_config


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.mode == "labels"
    assert cfg.steps == 1000
    assert cfg.frames_per_decision == 20
    assert cfg.learning.epsilon == 0.125
    assert cfg.learning.gamma == 0.9
    assert cfg.behavior.t_idle == 10.0
    assert cfg.scene.noise_sigma == 2.0
    assert len(cfg.profile.routines) == 4


def test_missing_file_raises():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/episode.ini")


def write(tmp_path, text):
    p = tmp_path / "episode.ini"
    p.write_text(text)
    return str(p)


def test_full_file_parsing(tmp_path):
    path = write(
        tmp_path,
        """
[episode]
mode = pixels
steps = 250
frame_rate = 5
decision_period = 2
seed = 42
dump_frames = true

[learning]
epsilon = 0.2
gamma = 0.8
tol = 1e-7

[behavior]
t_idle = 30
t_resp = 4

[profile]
erratic_rate = 0.05
compliance = 0.7

[p_star]
attending.mimic = 0.95
beckon.notattending.beckon = 0.85

[scene]
noise_sigma = 0
""",
    )
    cfg = load_config(path)
    assert cfg.mode == "pixels" and cfg.steps == 250 and cfg.seed == 42
    assert cfg.frames_per_decision == 10
    assert cfg.dump_frames
    assert cfg.learning.epsilon == 0.2 and cfg.learning.gamma == 0.8
    assert cfg.behavior.t_idle == 30.0 and cfg.behavior.t_resp == 4.0
    assert cfg.profile.erratic_rate == 0.05 and cfg.profile.compliance == 0.7
    # two-part key sets the whole action column, three-part key one cell
    assert cfg.profile.prob(Routine.Ponder, True, Routine.Mimic) == 0.95
    assert cfg.profile.prob(Routine.Beckon, False, Routine.Beckon) == 0.85
    assert cfg.scene.noise_sigma == 0.0


def test_bad_routine_name(tmp_path):
    path = write(tmp_path, "[profile]\nroutines = Beckon, Moonwalk\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_numeric_value(tmp_path):
    path = write(tmp_path, "[learning]\nepsilon = lots\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "learning.epsilon" in str(exc.value)


def test_bad_mode(tmp_path):
    path = write(tmp_path, "[episode]\nmode = dreams\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_decision_period_must_align(tmp_path):
    path = write(tmp_path, "[episode]\nframe_rate = 10\ndecision_period = 0.15\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_p_star_key(tmp_path):
    path = write(tmp_path, "[profile]\ncompliance = 0.9\n[p_star]\nattending.moonwalk = 0.5\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_p_star_applies_without_profile_section(tmp_path):
    path = write(tmp_path, "[p_star]\nattending.mimic = 0.95\n")
    cfg = load_config(path)
    assert cfg.profile.prob(Routine.Ponder, True, Routine.Mimic) == 0.95


# (section, key, value, the key the error must name)
OUT_OF_RANGE = [
    ("learning", "gamma", "1.0", "learning.gamma"),
    ("learning", "gamma", "-0.5", "learning.gamma"),
    ("learning", "gamma", "nan", "learning.gamma"),
    ("learning", "gamma", "0.999", "learning.gamma"),  # cannot converge to the default tol within MAX_SWEEPS
    ("learning", "tol", "0", "learning.tol"),
    ("learning", "tol", "-1e-6", "learning.tol"),
    ("learning", "epsilon", "2", "learning.epsilon"),
    ("learning", "epsilon", "-0.1", "learning.epsilon"),
    ("profile", "compliance", "2", "profile.compliance"),
    ("profile", "compliance", "nan", "profile.compliance"),
    ("profile", "erratic_rate", "-0.1", "profile.erratic_rate"),
    ("profile", "erratic_rate", "1.5", "profile.erratic_rate"),
    ("profile", "routines", "", "profile.routines"),
    ("profile", "routines", "Mimic, Mimic", "profile.routines"),
    ("p_star", "attending.mimic", "1.5", "p_star.beckon.attending.mimic"),
    ("p_star", "ponder.notattending.beckon", "-0.2", "p_star.ponder.notattending.beckon"),
    ("p_star", "attendng.mimic", "0.0", "p_star.attendng.mimic"),  # misspelt: not a not-attending cell
    ("p_star", "beckon.attendng.mimic", "0.0", "p_star.beckon.attendng.mimic"),
    ("behavior", "selectable", "", "behavior.selectable"),
    ("behavior", "t_idle", "-1", "behavior.t_idle"),
    ("behavior", "t_ponder", "inf", "behavior.t_ponder"),
    ("behavior", "t_resp", "-5", "behavior.t_resp"),
    ("behavior", "t_resp", "0", "behavior.t_resp"),
    ("behavior", "t_feedback", "nan", "behavior.t_feedback"),
    ("behavior", "t_idle", "1e308", "behavior.t_idle"),  # finite seconds, infinite frames
    ("episode", "seed", "-1", "episode.seed"),
    ("episode", "frame_rate", "nan", "episode.frame_rate"),
    ("episode", "frame_rate", "-10", "episode.frame_rate"),
    ("episode", "decision_period", "inf", "episode.decision_period"),
    ("episode", "dump_frames", "maybe", "episode.dump_frames"),
    ("scene", "noise_sigma", "-2", "scene.noise_sigma"),
    ("scene", "noise_sigma", "nan", "scene.noise_sigma"),
    ("scene", "noise_sigma", "inf", "scene.noise_sigma"),
    ("scene", "noise_sigma", "256", "scene.noise_sigma"),
    ("scene", "noise_sigma", "1e308", "scene.noise_sigma"),  # overflowed the noise draws
]


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("section, key, value, named", OUT_OF_RANGE)
def test_out_of_range_key_exits_2_naming_it(tmp_path, capsys, command, section, key, value, named):
    path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    argv = [command, "--config", path] + (["--steps", "10", "--out", str(tmp_path / "run")] if command == "run" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {named}:")
    assert captured.out == ""


@pytest.mark.parametrize("ini, argv", [("[episode]\nout =\n", []), ("", ["--out", ""])])
def test_empty_output_directory_exits_2_before_running(tmp_path, capsys, monkeypatch, ini, argv):
    monkeypatch.setattr(harness, "run_episode", lambda cfg: pytest.fail("the episode ran"))
    path = write(tmp_path, ini)
    assert cli.main(["run", "--config", path, "--steps", "10", *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: episode.out:")
    with pytest.raises(ConfigError) as exc:
        EpisodeConfig(out_dir="").validate()
    assert exc.value.key == "episode.out"


@pytest.mark.parametrize("under", ["", "sub", "sub/dir/"])
@pytest.mark.parametrize("via", ["ini", "flag"])
def test_output_directory_naming_a_file_exits_2_before_running(tmp_path, capsys, monkeypatch, via, under):
    # it ran the whole episode, then exited 3 on os.makedirs: [Errno 17] File
    # exists, or [Errno 20] Not a directory for a path below the file
    monkeypatch.setattr(harness, "run_episode", lambda cfg: pytest.fail("the episode ran"))
    taken = tmp_path / "taken.csv"
    taken.write_text("kept\n")
    out = os.path.join(taken, under) if under else str(taken)
    path = write(tmp_path, f"[episode]\nout = {out}\n" if via == "ini" else "")
    argv = ["--out", out] if via == "flag" else []
    assert cli.main(["run", "--config", path, "--steps", "10", *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: episode.out:")
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize(
    "name",
    ["a\0b", "a" * 300, "a" * 300 + "/sub", "sub/" + "a" * 300, "\u00e9" * 128],
    ids=["nul", "overlong", "overlong-parent", "overlong-under-new-dir", "overlong-in-bytes"],
)
@pytest.mark.parametrize("via", ["ini", "flag"])
def test_unusable_output_name_exits_2_before_running(tmp_path, capsys, monkeypatch, via, name):
    # each ran the whole episode, then exited 3 on os.makedirs: embedded null
    # byte, or [Errno 36] File name too long; the limit counts bytes (128 é are 256)
    monkeypatch.setattr(harness, "run_episode", lambda cfg: pytest.fail("the episode ran"))
    out = os.path.join(tmp_path, name)
    path = write(tmp_path, f"[episode]\nout = {out}\n" if via == "ini" else "")
    argv = ["--out", out] if via == "flag" else []
    assert cli.main(["run", "--config", path, "--steps", "10", *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: episode.out:")
    assert os.listdir(tmp_path) == ["episode.ini"]


def test_output_names_up_to_the_name_limit_accepted(tmp_path):
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    config.check_output_path("episode.out", os.path.join(tmp_path, "a" * name_max, "b" * name_max))
    config.check_output_path("--out", os.path.join(tmp_path, "a" * name_max), file=True)
    with pytest.raises(ConfigError):
        config.check_output_path("--out", os.path.join(tmp_path, "a" * (name_max + 1)), file=True)


@pytest.mark.parametrize("mode", ["labels", "pixels"])
@pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf"), 1e308])
def test_noise_level_set_after_loading_rejected(mode, sigma):
    # checked with the other keys, so a value set on a loaded config is
    # rejected too; pixel mode used to render it without noise
    cfg = load_config(None, {"mode": mode, "steps": 10})
    cfg.scene.noise_sigma = sigma
    for check in (cfg.validate, lambda: harness.run_episode(cfg)):
        with pytest.raises(ConfigError) as exc:
            check()
        assert exc.value.key == "scene.noise_sigma"


def test_largest_noise_level_runs_without_warnings(tmp_path, capsys):
    # 255 clips nearly every pixel to 0 or 255; 1e308 used to overflow the
    # draws with a RuntimeWarning and run on anyway
    path = write(tmp_path, "[scene]\nnoise_sigma = 255\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "--config", path, "--mode", "pixels", "--steps", "40", "--out", str(tmp_path / "run")])
    assert code == 0, capsys.readouterr().err


def test_meaningless_behavior_values_rejected(tmp_path, capsys):
    # each of these alone was accepted and ran with exit 0; the first is named
    path = write(tmp_path, "[behavior]\nt_resp = -5\nt_feedback = nan\n")
    assert cli.main(["run", "--config", path, "--steps", "200", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("config error: behavior.t_resp:")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("via", ["ini", "flag"])
def test_dump_frames_rejected_in_label_mode_only(tmp_path, capsys, via):
    # label mode renders no frames; it used to exit 0 leaving an empty frames/
    path = write(tmp_path, "[episode]\ndump_frames = yes\n" if via == "ini" else "[episode]\n")
    argv = ["run", "--config", path, "--steps", "10", "--out", str(tmp_path / "run")]
    argv += ["--dump-frames"] if via == "flag" else []
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: episode.dump_frames:")
    assert not (tmp_path / "run").exists()
    # pixel mode still dumps every frame
    assert cli.main(argv + ["--mode", "pixels"]) == 0
    assert len(list((tmp_path / "run" / "frames").glob("body_*.pgm"))) == 10


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize(
    "text, named",
    [
        ("[learning]\ngama = 1.0\n", "learning.gama"),
        ("[learning]\nmax_sweeps = 10000\n", "learning.max_sweeps"),  # the budget is learning.MAX_SWEEPS
        ("[episode]\nasync_values = yes\n", "episode.async_values"),
        # the distance reflex is gone, and the erratic-motion thresholds are
        # attention.TAU_JERK and attention.K_ERRATIC
        ("[behavior]\nr_lo = 0.02\n", "behavior.r_lo"),
        ("[behavior]\nr_hi = 0.30\n", "behavior.r_hi"),
        ("[fusion]\ntau_jerk = 12\n", "fusion"),
        ("[fusion]\nk_erratic = 3\n", "fusion"),
        ("[fusion]\nt_recent = 0\n", "fusion"),
        ("[behavior]\nselectable = Reward\n", "behavior.selectable"),
        ("[scene]\nwidht = 64\n", "scene.widht"),
        # the camera's geometry and background are constants in `viewer`
        ("[scene]\nwidth = 128\n", "scene.width"),
        ("[scene]\nheight = 128\n", "scene.height"),
        ("[scene]\nface_ax = 24\n", "scene.face_ax"),
        ("[scene]\nface_ay = 30\n", "scene.face_ay"),
        ("[scene]\nbg_intensity = 60\n", "scene.bg_intensity"),
        ("[lerning]\ngamma = 0.5\n", "lerning"),
        ("[Episode]\nsteps = 5\n", "Episode"),
        ("[DEFAULT]\nsteps = 5\n", "DEFAULT.steps"),
        ("[episode]\nsteps = 5\nsteps = 6\n", "config"),
        ("steps = 5\n", "config"),
    ],
)
def test_unknown_or_malformed_entries_exit_2_naming_them(tmp_path, capsys, command, text, named):
    path = write(tmp_path, text)
    argv = [command, "--config", path] + (["--steps", "10", "--out", str(tmp_path / "run")] if command == "run" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {named}:")
    assert captured.out == ""


def test_values_are_literal(tmp_path):
    path = write(tmp_path, "[episode]\nout = runs/100%done\n")
    assert load_config(path).out_dir == "runs/100%done"


def test_session_ini_of_the_benchmark_loads(tmp_path):
    # the INI layout the benchmark's `sessions` workload writes
    path = write(
        tmp_path,
        f"[episode]\nsteps = 150\nseed = 12345\nout = {tmp_path / 'run'}\n\n"
        "[behavior]\nt_idle = 3.0\n\n[profile]\nerratic_rate = 0.15\ncompliance = 0.9\n",
    )
    cfg = load_config(path)
    assert (cfg.steps, cfg.seed, cfg.behavior.t_idle, cfg.profile.erratic_rate) == (150, 12345, 3.0, 0.15)


def test_behavior_boundaries_accepted(tmp_path):
    path = write(tmp_path, "[behavior]\nt_idle = 0\nt_ponder = 0\nt_resp = 0.1\nt_feedback = 0\n")
    assert cli.main(["run", "--config", path, "--steps", "60", "--out", str(tmp_path / "run")]) == 0


# (values in range, values out of range or malformed) per key; one key in
# ten takes a bad value, and one file in three ends in an unknown key,
# section, routine or attending part. `validate` rejects a gamma that value iteration
# might not converge for within `learning.MAX_SWEEPS` sweeps, so a
# NonConvergence (a runtime error, exit 3) is not a possible outcome.
_SECONDS = (["0", "0.5", "2", "30"], ["-1", "nan", "inf", "1e308", "x", ""])
_UNIT = (["0", "0.15", "0.9", "1"], ["-0.1", "1.5", "nan", "x"])
_INI_VALUES = {
    "episode": {
        "frame_rate": (["10", "5", "2.5"], ["1e-300", "0", "-10", "nan", "inf"]),
        "decision_period": (["2", "0.4"], ["0.3", "0", "-2", "inf", "1e300"]),
        "seed": (["0", "7", "123456789012345678901234567890"], ["-1", "x"]),
        "dump_frames": (["yes", "no"], ["maybe"]),
    },
    "learning": {
        "epsilon": _UNIT,
        "gamma": (["0", "0.5", "0.99"], ["1", "-0.1", "nan", "x", "0.999"]),
        "tol": (["1e-6", "1e-3", "1e-12"], ["0", "-1", "nan"]),
        "random_policy": (["yes", "no"], ["2"]),
    },
    "behavior": {
        "t_idle": _SECONDS,
        "t_ponder": _SECONDS,
        "t_resp": (["0.1", "5"], ["0", "-5", "nan", "1e308"]),
        "t_feedback": _SECONDS,
    },
    "profile": {
        "routines": (["Beckon, Mimic, Ponder, PromptGesture", "Mimic", "Beckon, Reward"], ["", "Nope", "Mimic, Mimic"]),
        "erratic_rate": _UNIT,
        "compliance": _UNIT,
    },
    "p_star": {
        "attending.mimic": _UNIT,
        "notattending.beckon": _UNIT,
        "mimic.attending.mimic": _UNIT,
    },
    "scene": {
        "noise_sigma": (["2", "0", "8", "40"], ["-1", "nan", "inf", "256", "x"]),
    },
}


@st.composite
def _ini_text(draw):
    mode, steps = draw(st.sampled_from(["labels", "pixels"])), draw(st.sampled_from(["1", "4", "8", "8", "0"]))
    sections = {"episode": [f"mode = {mode}", f"steps = {steps}"]}
    for section in draw(st.lists(st.sampled_from(sorted(_INI_VALUES)), unique=True, max_size=4)):
        for key in draw(st.lists(st.sampled_from(sorted(_INI_VALUES[section])), unique=True, max_size=4)):
            good, bad = _INI_VALUES[section][key]
            value = draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 0 else good))
            sections.setdefault(section, []).append(f"{key} = {value}")
    junk = draw(
        st.sampled_from(
            [""] * 10
            + [
                "gama = 1.0",
                "[lerning]",
                "[fusion]\ntau_jerk = 12",
                "[behavior]\nr_lo = 0.02",
                "[p_star]\nreward.attending.mimic = 0.5",
                "[p_star]\nattendng.mimic = 0.0",
                "[p_star]\nbeckon.attendng.mimic = 0.0",
            ]
        )
    )
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines) for name, lines in sections.items()) + junk


@settings(max_examples=120, deadline=None)
@given(text=_ini_text())
def test_any_ini_file_runs_or_exits_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "episode.ini"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--config", str(path), "--out", str(Path(tmp) / "run")])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("config error: ")


def test_range_boundaries_accepted(tmp_path):
    path = write(
        tmp_path,
        "[learning]\ngamma = 0\nepsilon = 1\n"
        "[profile]\ncompliance = 0\nerratic_rate = 1\n"
        "[p_star]\nattending.mimic = 1\nnotattending.beckon = 0\n",
    )
    assert cli.main(["run", "--config", path, "--steps", "60", "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["oracle", "--config", path]) == 0


@pytest.mark.parametrize("gamma, accepted", [(0.997, True), (0.998, False)])
def test_gamma_must_converge_within_max_sweeps(tmp_path, capsys, gamma, accepted):
    # gamma**(MAX_SWEEPS - 1) * (1/(1 - gamma) + gamma * tol) < tol at the
    # default tol bounds gamma just below 0.998
    path = write(tmp_path, f"[learning]\ngamma = {gamma}\n")
    if accepted:
        assert load_config(path).learning.gamma == gamma
        assert cli.main(["run", "--config", path, "--steps", "60", "--out", str(tmp_path / "run")]) == 0
    else:
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.key == "learning.gamma"
        assert f"within {learning.MAX_SWEEPS} sweeps" in str(exc.value)


def test_overrides_win(tmp_path):
    path = write(tmp_path, "[episode]\nsteps = 100\nseed = 1\n")
    cfg = load_config(path, overrides={"steps": 7, "seed": None})
    assert cfg.steps == 7
    assert cfg.seed == 1  # None override is ignored


def test_validate_rejects_nonpositive_steps():
    cfg = EpisodeConfig(steps=0)
    with pytest.raises(ConfigError):
        cfg.validate()


EXAMPLE_INI = Path(__file__).resolve().parents[1] / "configs" / "example.ini"


def test_example_ini_gives_shipped_defaults():
    assert_same_config(load_config(str(EXAMPLE_INI)), load_config(None))


def test_example_ini_runs_through_cli(tmp_path):
    argv = ["run", "--config", str(EXAMPLE_INI), "--steps", "10", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert (tmp_path / "run" / "episode.csv").exists()


def assert_same_config(a, b):
    for name, value in vars(b).items():
        if name != "profile":
            assert getattr(a, name) == value, name
    for name in ("routines", "erratic_rate", "compliance"):
        assert getattr(a.profile, name) == getattr(b.profile, name), name
    assert np.array_equal(a.profile.p_star, b.profile.p_star)


def test_loader_keys_are_those_example_ini_lists():
    listed, section = set(), None
    for line in EXAMPLE_INI.read_text().splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line)
        entry = re.match(r";?\s*(\w+)\s*=", line)
        if header:
            section = header.group(1)
        elif entry and section != "p_star":
            listed.add(f"{section}.{entry.group(1)}")  # commented keys too
    loaded = {f"{section}.{key}" for section, keys in config.SECTIONS.items() for key in keys}
    assert loaded == listed
    # learning.max_sweeps became learning.MAX_SWEEPS, the scene's geometry
    # and background constants in `viewer`, and [fusion] attention.TAU_JERK
    # and K_ERRATIC; behavior.r_lo and r_hi went with the distance reflex
    assert len(loaded) == 19


def test_defaults_without_file_are_the_dataclass_defaults():
    assert_same_config(load_config(None), EpisodeConfig())


def test_validate_leaves_the_config_unchanged():
    cfg = load_config(str(EXAMPLE_INI))
    cfg.frame_rate = 0.5
    before = copy.deepcopy(cfg)
    assert cfg.validate() is cfg
    assert_same_config(cfg, before)
