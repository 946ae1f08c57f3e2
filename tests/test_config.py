from pathlib import Path

import numpy as np
import pytest

from imime import cli
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
    assert cfg.scene.width == 128
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
r_hi = 0.5

[fusion]
tau_jerk = 15

[profile]
erratic_rate = 0.05
compliance = 0.7

[p_star]
attending.mimic = 0.95
beckon.notattending.beckon = 0.85

[scene]
width = 96
height = 96
noise_sigma = 0
""",
    )
    cfg = load_config(path)
    assert cfg.mode == "pixels" and cfg.steps == 250 and cfg.seed == 42
    assert cfg.frames_per_decision == 10
    assert cfg.dump_frames
    assert cfg.learning.epsilon == 0.2 and cfg.learning.gamma == 0.8
    assert cfg.behavior.t_idle == 30.0 and cfg.behavior.r_hi == 0.5
    assert cfg.fusion.tau_jerk == 15.0
    assert cfg.profile.erratic_rate == 0.05 and cfg.profile.compliance == 0.7
    # two-part key sets the whole action column, three-part key one cell
    assert cfg.profile.prob(Routine.Ponder, True, Routine.Mimic) == 0.95
    assert cfg.profile.prob(Routine.Beckon, False, Routine.Beckon) == 0.85
    assert cfg.scene.width == 96 and cfg.scene.noise_sigma == 0.0


def test_selectable_routines_parsed(tmp_path):
    path = write(tmp_path, "[behavior]\nselectable = Beckon, Mimic\n")
    cfg = load_config(path)
    assert cfg.behavior.selectable == (Routine.Beckon, Routine.Mimic)


def test_bad_routine_name(tmp_path):
    path = write(tmp_path, "[behavior]\nselectable = Beckon, Moonwalk\n")
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
    ("learning", "tol", "0", "learning.tol"),
    ("learning", "tol", "-1e-6", "learning.tol"),
    ("learning", "max_sweeps", "0", "learning.max_sweeps"),
    ("learning", "epsilon", "2", "learning.epsilon"),
    ("learning", "epsilon", "-0.1", "learning.epsilon"),
    ("profile", "compliance", "2", "profile.compliance"),
    ("profile", "compliance", "nan", "profile.compliance"),
    ("profile", "erratic_rate", "-0.1", "profile.erratic_rate"),
    ("profile", "erratic_rate", "1.5", "profile.erratic_rate"),
    ("profile", "routines", "", "profile.routines"),
    ("p_star", "attending.mimic", "1.5", "p_star.beckon.attending.mimic"),
    ("p_star", "ponder.notattending.beckon", "-0.2", "p_star.ponder.notattending.beckon"),
    ("behavior", "selectable", "", "behavior.selectable"),
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


def test_range_boundaries_accepted(tmp_path):
    path = write(
        tmp_path,
        "[learning]\ngamma = 0\nepsilon = 1\nmax_sweeps = 2\n"
        "[profile]\ncompliance = 0\nerratic_rate = 1\n"
        "[p_star]\nattending.mimic = 1\nnotattending.beckon = 0\n",
    )
    assert cli.main(["run", "--config", path, "--steps", "60", "--out", str(tmp_path / "run")]) == 0
    assert cli.main(["oracle", "--config", path]) == 0


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
    example, default = load_config(str(EXAMPLE_INI)), load_config(None)
    for name, value in vars(default).items():
        if name != "profile":
            assert getattr(example, name) == value, name
    for name in ("routines", "erratic_rate", "compliance"):
        assert getattr(example.profile, name) == getattr(default.profile, name), name
    assert np.array_equal(example.profile.p_star, default.profile.p_star)


def test_example_ini_runs_through_cli(tmp_path):
    argv = ["run", "--config", str(EXAMPLE_INI), "--steps", "10", "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    assert (tmp_path / "run" / "episode.csv").exists()
