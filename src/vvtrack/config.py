"""Pipeline configuration: one flat JSON section per module.

Unknown sections or keys are hard errors; silent typos in tolerance
names are the classic failure mode.
"""

from __future__ import annotations

import copy
import json


class ConfigError(Exception):
    pass


DEFAULTS: dict = {
    "background": {
        "a": 0.05,
        "b": 0.1,
        "T_sim": 0.3,
        "window_radius": 1,
        "burn_in": 10,
    },
    "shadow": {
        "sigma": 1.0,
        "t1": 0.3,
        "t2": 0.1,
        "penumbra": 2,
        "min_blob_area": 25,
        "enabled": False,
    },
    "vocabulary": {
        "K": 200,
        "grid_stride": 8,
        "patch": 16,
        "soft_m": 5,
        "soft_sigma": 0.2,
    },
    "classifier": {
        "C": 1.0,
        "c_offset": 1.0,
        "folds": 5,
    },
    "recognition": {
        "b0": 0.1,
        "score_fraction": 0.25,
        "codebook_path": None,
        "svm_path": None,
    },
    "tracker": {
        "n_particles": 50,
        "n_iters": 20,
        "c_anneal": 0.3,
        "sigma0": [8.0, 8.0, 0.05],
        "q": 8,
        "window": 16,
        "update_every": 5,
        "tau": 0.1,
        "eta": 4.0,
        "sigma_obs_sq": 51.2,
        "fit_floor": 1e-12,
        "lost_patience": 10,
        "track_scale": True,
    },
    "seed": 0,
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return merge_config(user)


def merge_config(user: dict) -> dict:
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = default_config()
    for section, values in user.items():
        if section == "seed":
            cfg["seed"] = int(values)
            continue
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in cfg[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            cfg[section][key] = value
    _validate(cfg)
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _validate(cfg: dict) -> None:
    bg = cfg["background"]
    if not 0.04 <= bg["a"] <= 0.06:
        raise ConfigError("background.a must lie in [0.04, 0.06]")
    sh = cfg["shadow"]
    if not (_is_number(sh["t1"]) and _is_number(sh["t2"])
            and 0.0 <= sh["t2"] < sh["t1"] <= 1.0):
        raise ConfigError("shadow.t1 and shadow.t2 need 0 <= t2 < t1 <= 1")
    if not (_is_number(sh["sigma"]) and sh["sigma"] >= 0):
        raise ConfigError("shadow.sigma must be a number >= 0")
    if not (_is_int(sh["penumbra"]) and sh["penumbra"] >= 0):
        raise ConfigError("shadow.penumbra must be an integer >= 0")
    if not (_is_int(sh["min_blob_area"]) and sh["min_blob_area"] >= 1):
        raise ConfigError("shadow.min_blob_area must be an integer >= 1")
    if not isinstance(sh["enabled"], bool):
        raise ConfigError("shadow.enabled must be true or false")
    if cfg["vocabulary"]["K"] < 2:
        raise ConfigError("vocabulary.K must be >= 2")
    tr = cfg["tracker"]
    if tr["n_particles"] < 1 or tr["n_iters"] < 1:
        raise ConfigError("tracker particle/iteration counts must be >= 1")
    if len(tr["sigma0"]) != 3:
        raise ConfigError("tracker.sigma0 must have three entries")


def tracker_config(cfg: dict):
    from .tracker import TrackerConfig

    tr = cfg["tracker"]
    return TrackerConfig(
        n_particles=int(tr["n_particles"]),
        n_iters=int(tr["n_iters"]),
        c_anneal=float(tr["c_anneal"]),
        sigma0=tuple(float(v) for v in tr["sigma0"]),
        q=int(tr["q"]),
        window=int(tr["window"]),
        update_every=int(tr["update_every"]),
        tau=float(tr["tau"]),
        eta=float(tr["eta"]),
        sigma_obs_sq=float(tr["sigma_obs_sq"]),
        fit_floor=float(tr["fit_floor"]),
        lost_patience=int(tr["lost_patience"]),
        track_scale=bool(tr["track_scale"]),
    )
