import inspect
import json

import pytest

from vvtrack.config import (ConfigError, default_config, load_config,
                            merge_config, tracker_config)
from vvtrack.svm import SvmModel, cross_validate, train_svm
from vvtrack.tracker import TrackerConfig


# Keys that had no effect and were deleted; a config naming one is a typo.
REMOVED_KEYS = [
    ("shadow", "poisson_tol"), ("shadow", "poisson_max_sweeps"),
    ("vocabulary", "soft_m"), ("vocabulary", "soft_sigma"),
    ("classifier", "folds"), ("recognition", "b0"),
    ("recognition", "score_fraction"),
]


def _write(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return path


class TestMergeConfig:
    def test_empty_config_gives_defaults(self):
        cfg = merge_config({})
        assert cfg == default_config()

    def test_override_single_key(self):
        cfg = merge_config({"background": {"a": 0.045}})
        assert cfg["background"]["a"] == 0.045
        assert cfg["background"]["b"] == 0.1  # untouched default

    def test_unknown_section_errors(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            merge_config({"backgroud": {"a": 0.05}})

    def test_unknown_key_errors(self):
        with pytest.raises(ConfigError, match="unknown key"):
            merge_config({"background": {"alpha": 0.05}})

    def test_seed_is_top_level(self):
        cfg = merge_config({"seed": 42})
        assert cfg["seed"] == 42

    def test_non_object_root_errors(self):
        with pytest.raises(ConfigError):
            merge_config([1, 2, 3])

    def test_non_object_section_errors(self):
        with pytest.raises(ConfigError):
            merge_config({"background": 5})

    def test_defaults_not_mutated(self):
        merge_config({"background": {"a": 0.06}})
        assert default_config()["background"]["a"] == 0.05


class TestValidation:
    def test_a_out_of_range_errors(self):
        with pytest.raises(ConfigError, match="background.a"):
            merge_config({"background": {"a": 0.2}})

    def test_shadow_threshold_order_enforced(self):
        with pytest.raises(ConfigError):
            merge_config({"shadow": {"t1": 0.05, "t2": 0.1}})

    @pytest.mark.parametrize("section,key", REMOVED_KEYS,
                             ids=[key for _, key in REMOVED_KEYS])
    def test_removed_poisson_keys_rejected(self, section, key):
        with pytest.raises(ConfigError, match="unknown key"):
            merge_config({section: {key: 1}})

    @pytest.mark.parametrize("key,value", [
        ("sigma", -1), ("sigma", "1"), ("t1", "0.3"), ("t2", None),
        ("penumbra", "2"), ("penumbra", -1), ("penumbra", 1.5),
        ("min_blob_area", "x"), ("min_blob_area", 0), ("enabled", "yes"),
    ])
    def test_bad_shadow_value_errors(self, key, value):
        with pytest.raises(ConfigError, match=f"shadow.{key}"):
            merge_config({"shadow": {key: value}})

    def test_small_vocabulary_errors(self):
        with pytest.raises(ConfigError):
            merge_config({"vocabulary": {"K": 1}})

    @pytest.mark.parametrize("key,value", [
        ("grid_stride", 0), ("grid_stride", -8), ("patch", 3), ("patch", -4),
    ])
    def test_bad_vocabulary_grid_errors(self, key, value):
        with pytest.raises(ConfigError, match=f"vocabulary.{key}"):
            merge_config({"vocabulary": {key: value}})

    def test_smallest_vocabulary_grid_accepted(self):
        voc = merge_config({"vocabulary": {"grid_stride": 1, "patch": 4}})["vocabulary"]
        assert (voc["grid_stride"], voc["patch"]) == (1, 4)

    def test_bad_particle_count_errors(self):
        with pytest.raises(ConfigError):
            merge_config({"tracker": {"n_particles": 0}})

    @pytest.mark.parametrize("user,name", [
        ({"tracker": {"update_every": 0}}, "tracker.update_every"),
        ({"tracker": {"n_particles": "50"}}, "tracker.n_particles"),
        ({"tracker": {"n_iters": True}}, "tracker.n_iters"),
        ({"tracker": {"q": 8.0}}, "tracker.q"),
        ({"tracker": {"track_scale": 1}}, "tracker.track_scale"),
        ({"tracker": {"sigma0": 5}}, "tracker.sigma0"),
        ({"tracker": {"sigma0": [8.0, "8", 0.05]}}, "tracker.sigma0"),
        ({"vocabulary": {"K": "x"}}, "vocabulary.K"),
        ({"background": {"a": "x"}}, "background.a"),
        ({"recognition": {"svm_path": 3}}, "recognition.svm_path"),
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"tracker": {"sigma0": [8.0, -1.0, 0.05]}}, "tracker.sigma0"),
        ({"tracker": {"lost_patience": 0}}, "tracker.lost_patience"),
        ({"tracker": {"window": 1}}, "tracker.window"),
        ({"tracker": {"sigma_obs_sq": 0}}, "tracker.sigma_obs_sq"),
        ({"tracker": {"fit_floor": 0.0}}, "tracker.fit_floor"),
        ({"tracker": {"q": 0}}, "tracker.q"),
        ({"tracker": {"q": 1025}}, "tracker.q"),
        ({"tracker": {"c_anneal": -0.1}}, "tracker.c_anneal"),
        ({"tracker": {"tau": -0.1}}, "tracker.tau"),
        ({"tracker": {"eta": -1.0}}, "tracker.eta"),
        ({"background": {"window_radius": 0}}, "background.window_radius"),
        ({"background": {"window_radius": -2}}, "background.window_radius"),
        ({"background": {"b": -5.0}}, "background.b"),
        ({"background": {"T_sim": -0.1}}, "background.T_sim"),
        ({"background": {"T_sim": 2.0}}, "background.T_sim"),
        ({"background": {"T_sim": 5}}, "background.T_sim"),
        ({"classifier": {"C": 0}}, "classifier.C"),
        ({"classifier": {"C": -1.0}}, "classifier.C"),
        ({"classifier": {"c_offset": -1.0}}, "classifier.c_offset"),
        ({"classifier": {"c_offset": -5}}, "classifier.c_offset"),
        ({"seed": -1}, "seed"),
        ({"background": {"burn_in": -1}}, "background.burn_in"),
        ({"tracker": {"sigma0": [float("nan"), 8, 0.05]}}, "tracker.sigma0"),
        ({"background": {"b": float("nan")}}, "background.b"),
        ({"tracker": {"tau": float("nan")}}, "tracker.tau"),
        ({"tracker": {"eta": float("inf")}}, "tracker.eta"),
        ({"shadow": {"sigma": float("inf")}}, "shadow.sigma"),
        ({"classifier": {"c_offset": float("inf")}}, "classifier.c_offset"),
    ])
    def test_bad_value_errors(self, user, name):
        with pytest.raises(ConfigError, match=name):
            merge_config(user)

    def test_smallest_tracker_values_accepted(self):
        cfg = merge_config({"tracker": {
            "lost_patience": 1, "window": 2, "sigma0": [0, 0, 0],
            "sigma_obs_sq": 1e-6, "fit_floor": 1e-300, "q": 1, "c_anneal": 0,
            "tau": 0, "eta": 0}, "background": {"window_radius": 1, "b": 0}})
        tc = tracker_config(cfg)
        assert (tc.lost_patience, tc.window, tc.sigma0) == (1, 2, (0.0, 0.0, 0.0))
        assert (tc.q, tc.c_anneal, tc.tau, tc.eta) == (1, 0.0, 0.0, 0.0)
        assert (cfg["background"]["window_radius"], cfg["background"]["b"]) == (1, 0.0)
        assert tracker_config(merge_config({"tracker": {"q": 1024}})).q == 1024

    def test_range_edges_accepted(self):
        cfg = merge_config({"background": {"T_sim": 0},
                            "classifier": {"c_offset": 0, "C": 1e-6}})
        assert cfg["background"]["T_sim"] == 0.0
        assert (cfg["classifier"]["c_offset"], cfg["classifier"]["C"]) == (0.0, 1e-6)
        assert merge_config({"background": {"T_sim": 1.999}})["background"]["T_sim"] == 1.999

    def test_int_accepted_for_float_default(self):
        tc = tracker_config(merge_config({"tracker": {"eta": 4, "sigma0": [4, 4, 1]}}))
        assert type(tc.eta) is float and tc.eta == 4.0
        assert tc.sigma0 == (4.0, 4.0, 1.0)
        assert all(type(v) is float for v in tc.sigma0)

    def test_bad_sigma0_length_errors(self):
        with pytest.raises(ConfigError):
            merge_config({"tracker": {"sigma0": [8.0, 8.0]}})


class TestLoadConfig:
    def test_roundtrip_from_file(self, tmp_path):
        path = _write(tmp_path, {"tracker": {"n_particles": 30}, "seed": 7})
        cfg = load_config(path)
        assert cfg["tracker"]["n_particles"] == 30
        assert cfg["seed"] == 7

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


def test_tracker_config_conversion():
    cfg = merge_config({"tracker": {"n_particles": 25, "sigma0": [4, 4, 0.02],
                                    "track_scale": False}})
    tc = tracker_config(cfg)
    assert tc.n_particles == 25
    assert tc.sigma0 == (4.0, 4.0, 0.02)
    assert tc.track_scale is False
    assert tc.q == 8  # default carried through


def test_tracker_defaults_are_declared_once():
    assert tracker_config(default_config()) == TrackerConfig()
    # The swarm's early-stop count is a tracker constant, not a config key.
    with pytest.raises(ConfigError, match="unknown key"):
        merge_config({"tracker": {"stall_iters": 3}})


def test_classifier_defaults_are_declared_once():
    # A library caller trains with the C and kernel offset the CLI uses.
    classifier = default_config()["classifier"]
    for fn in (train_svm, cross_validate):
        defaults = inspect.signature(fn).parameters
        assert {k: defaults[k].default for k in classifier} == classifier
    assert {k: getattr(SvmModel(classes=[]), k) for k in classifier} == classifier
