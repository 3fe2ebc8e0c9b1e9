"""Pipeline configuration: one flat JSON section per module.

Unknown sections or keys are hard errors; silent typos in tolerance
names are the classic failure mode.  Every value must have the type of
its default (an int is also taken where the default is a float), and
every number must be finite.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

from .svm import DEFAULT_C, DEFAULT_C_OFFSET
from .tracker import TrackerConfig, TrackerError


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
    },
    "classifier": {
        "C": DEFAULT_C,
        "c_offset": DEFAULT_C_OFFSET,
    },
    "recognition": {
        "codebook_path": None,
        "svm_path": None,
    },
    # TrackerConfig is the one declaration; JSON holds the sigma0 tuple as a list.
    "tracker": {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
                for f in dataclasses.fields(TrackerConfig)},
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return merge_config(user)


def merge_config(user: dict) -> dict:
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = default_config()
    for section, values in user.items():
        if section not in cfg:
            raise ConfigError(f"unknown config section {section!r}")
        if section == "seed":
            cfg["seed"] = _typed("seed", cfg["seed"], values)
            continue
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in cfg[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
            cfg[section][key] = _typed(f"{section}.{key}", cfg[section][key], value)
    _validate(cfg)
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _typed(name: str, default, value):
    """value if it has its default's type; numbers become float where the default is."""
    if isinstance(default, bool):
        ok = isinstance(value, bool)
    elif isinstance(default, int):
        ok = _is_int(value)
    elif isinstance(default, float):
        ok = _is_number(value)
    elif isinstance(default, list):
        ok = (isinstance(value, list) and len(value) == len(default)
              and all(_is_number(v) for v in value))
    else:  # None: an optional path
        ok = value is None or isinstance(value, str)
    if not ok:
        raise ConfigError(f"{name} must have the type of its default {default!r}, "
                          f"got {value!r}")
    if isinstance(default, (float, list)):
        # json reads NaN and Infinity literals as floats.
        numbers = [float(v) for v in (value if isinstance(value, list) else [value])]
        if not all(map(math.isfinite, numbers)):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return numbers if isinstance(default, list) else numbers[0]
    return value


def _validate(cfg: dict) -> None:
    if cfg["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    bg = cfg["background"]
    if not 0.04 <= bg["a"] <= 0.06:
        raise ConfigError("background.a must lie in [0.04, 0.06]")
    if bg["b"] < 0:
        raise ConfigError("background.b must be >= 0")
    if bg["window_radius"] < 1:
        raise ConfigError("background.window_radius must be >= 1")
    if not 0.0 <= bg["T_sim"] < 2.0:
        raise ConfigError("background.T_sim must lie in [0, 2), the range of 1 - R")
    if bg["burn_in"] < 0:
        raise ConfigError("background.burn_in must be >= 0")
    sh = cfg["shadow"]
    if not 0.0 <= sh["t2"] < sh["t1"] <= 1.0:
        raise ConfigError("shadow.t1 and shadow.t2 need 0 <= t2 < t1 <= 1")
    if sh["sigma"] < 0:
        raise ConfigError("shadow.sigma must be >= 0")
    if sh["penumbra"] < 0:
        raise ConfigError("shadow.penumbra must be >= 0")
    if sh["min_blob_area"] < 1:
        raise ConfigError("shadow.min_blob_area must be >= 1")
    voc = cfg["vocabulary"]
    if voc["K"] < 2:
        raise ConfigError("vocabulary.K must be >= 2")
    if voc["grid_stride"] < 1:
        raise ConfigError("vocabulary.grid_stride must be >= 1")
    if voc["patch"] < 4:
        raise ConfigError("vocabulary.patch must be >= 4, one pixel per cell "
                          "of the 4x4 grid")
    cl = cfg["classifier"]
    if cl["C"] <= 0:
        raise ConfigError("classifier.C must be > 0")
    if cl["c_offset"] < 0:
        raise ConfigError("classifier.c_offset must be >= 0, or the cubic kernel "
                          "is not positive semi-definite")
    try:
        tracker_config(cfg)  # TrackerConfig checks its own values
    except TrackerError as exc:
        raise ConfigError(str(exc)) from None


def tracker_config(cfg: dict) -> TrackerConfig:
    tr = cfg["tracker"]
    return TrackerConfig(**{**tr, "sigma0": tuple(tr["sigma0"])})
