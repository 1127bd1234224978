"""Parsing of the line-oriented configuration files.

All files share one shape: `key = value` lines under `[section]` headers,
with `#` comments.  A section is read into a settings dataclass by one
reader, _section: each key names a field and is parsed as the type of that
field's default, and missing optional keys keep the default.  An unknown
key, a value that does not parse and a missing required key raise a
ValueError naming the file, the section and the key; a value the settings
dataclass refuses raises its ValueError, naming the field, prefixed with the
file and the section.  A file that is not UTF-8 or not in this shape (no
section header, a repeated section or key, a [DEFAULT] section) raises a
ValueError naming the file.
"""

from __future__ import annotations

import configparser
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .controllers import GainPair, LinearFeedbackGains
from .gaintable import AxisGrid, BuildConfig, CandidateSets
from .harness import BaselineConfig, ScenarioConfig
from .stability import FrequencySweep

__all__ = [
    "load_build_config",
    "load_axes",
    "load_candidates",
    "load_scenario",
    "load_baselines",
    "load_sweep",
]


def _read(path) -> configparser.ConfigParser:
    # No interpolation: a "%" in a value is a bad value, not a syntax error.
    # No header can name the default section "", so [DEFAULT] is read as a
    # section of its own, not merged into every other one.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None, default_section=""
    )
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if parser.has_section("DEFAULT"):
        raise ValueError(f"{path}: a [DEFAULT] section is not allowed")
    return parser


def _float_list(text: str) -> list[float]:
    # An empty value is an empty list, which the settings refuse by name; an
    # empty entry, trailing comma included, fails float() as a bad value.
    return [float(part) for part in text.split(",")] if text.strip() else []


# How a key is parsed, by its field's type; an array is comma-separated floats.
_PARSERS = {float: float, int: int, str: str, np.ndarray: _float_list}


def _section(parser, section: str, defaults, path, required=(), keys=None, **given):
    """defaults, a dataclass instance, with its fields read from [section].

    A field is read from the key of its name, or the one keys maps it to,
    and parsed by the type of its default (_PARSERS, or an Enum).  Other
    fields, such as nested settings, and those given sets are not read.
    The section may hold only keys that are read, and all of required.
    """
    read = {}
    for f in fields(defaults):
        kind = type(getattr(defaults, f.name))
        if f.name not in given and (kind in _PARSERS or issubclass(kind, Enum)):
            read[(keys or {}).get(f.name, f.name)] = f.name, _PARSERS.get(kind, kind)
    values = {}
    for key, text in parser.items(section) if parser.has_section(section) else ():
        if key not in read:
            raise ValueError(
                f"{path}: unknown key {key!r} in [{section}]; "
                f"expected one of {sorted(read)}"
            )
        name, parse = read[key]
        try:
            values[name] = parse(text)
        except ValueError as exc:
            raise ValueError(
                f"{path}: bad value {text!r} for key {key!r} in [{section}]"
            ) from exc
    for key in required:
        if not parser.has_option(section, key):
            raise ValueError(f"{path}: missing required key {key!r} in [{section}]")
    try:
        return replace(defaults, **values, **given)
    except ValueError as exc:
        raise ValueError(f"{path}: [{section}]: {exc}") from exc


def load_build_config(path) -> BuildConfig:
    """Build and run settings from [build], [thresholds], [weights]."""
    parser = _read(path)
    defaults = BuildConfig()
    return _section(
        parser, "build", defaults, path,
        thresholds=_section(parser, "thresholds", defaults.thresholds, path),
        weights=_section(parser, "weights", defaults.weights, path),
    )


def load_axes(path) -> AxisGrid:
    """Axis grids from [axes] keys dr, vi, vj (comma-separated values)."""
    # Every key is required, so no placeholder value is left.
    placeholder = AxisGrid(dr=[0.0], vi=[0.0], vj=[0.0])
    return _section(_read(path), "axes", placeholder, path, required=("dr", "vi", "vj"))


def load_candidates(path) -> CandidateSets:
    """Candidate gain values from [candidates] keys gamma, k."""
    return _section(
        _read(path), "candidates", CandidateSets(gammas=[1.0], ks=[1.0]), path,
        required=("gamma", "k"), keys={"gammas": "gamma", "ks": "k"},
    )


def load_scenario(path) -> ScenarioConfig:
    """One scenario from [scenario], with its gains from [controller_params].

    The id key defaults to the file's name without its suffix.
    fixed_consensus needs k and gamma; linear_feedback may set any
    LinearFeedbackGains field; lookup takes no [controller_params].
    """
    parser = _read(path)
    scenario = ScenarioConfig(scenario_id=Path(path).stem, dr0=0.0, vi0=0.0, vj0=0.0)
    controller = parser.get("scenario", "controller", fallback=scenario.controller)
    gains = None
    if controller == "fixed_consensus":
        placeholder = GainPair(k=1.0, gamma=1.0)  # both keys are required
        gains = _section(
            parser, "controller_params", placeholder, path, required=("k", "gamma")
        )
    elif controller == "linear_feedback":
        gains = _section(parser, "controller_params", LinearFeedbackGains(), path)
    elif controller == "lookup" and parser.has_section("controller_params"):
        raise ValueError(
            f"{path}: the lookup controller takes no [controller_params], "
            f"got {parser.options('controller_params')}"
        )
    return _section(
        parser, "scenario", scenario, path,
        required=("dr0", "vi0", "vj0"), keys={"scenario_id": "id"}, gains=gains,
    )


def load_baselines(path) -> BaselineConfig:
    """Baseline controller gains from [fixed_consensus] and [linear_feedback]."""
    parser = _read(path)
    defaults = BaselineConfig()
    return BaselineConfig(
        fixed=_section(parser, "fixed_consensus", defaults.fixed, path),
        linear=_section(parser, "linear_feedback", defaults.linear, path),
    )


def load_sweep(path) -> FrequencySweep:
    """Frequency sweep settings from [sweep]."""
    return _section(_read(path), "sweep", FrequencySweep(), path)
