"""Parsing of the line-oriented configuration files.

All files share one shape: `key = value` lines under `[section]` headers,
with `#` comments.  Each section is read into a settings dataclass by
gaintable._read_settings, the reader of a table's header lines too: each
key names a field, or the field its loader maps it to (a scenario's id),
and is parsed as the type of that field's default; missing optional keys
keep the default.  A fault in a section is prefixed with
"<file>: [<section>]: ": an unknown key, a value that does not parse and a
missing required key name the key; a value the settings dataclass refuses
raises its ValueError, naming the field.  A file that is not UTF-8 or not
in this shape (no section header, a repeated section or key, a [DEFAULT]
section) raises a ValueError naming the file.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .controllers import GainPair, LinearFeedbackGains
from .gaintable import (
    _AXES, _CANDIDATES, AxisGrid, BuildConfig, CandidateSets, _read_settings
)
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


def _section(parser, section: str, defaults, path, keys=None, required=(), **given):
    """defaults, a settings dataclass, with its fields read from [section]
    by gaintable._read_settings (keys maps a key to the field it fills); a
    fault is prefixed with the file and the section."""
    texts = dict(parser.items(section)) if parser.has_section(section) else {}
    try:
        return _read_settings(defaults, texts, keys or {}, required, **given)
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
    return _section(_read(path), "axes", _AXES, path, required=("dr", "vi", "vj"))


def load_candidates(path) -> CandidateSets:
    """Candidate gain values from [candidates] keys gamma, k."""
    return _section(
        _read(path), "candidates", _CANDIDATES, path,
        keys={"gamma": "gammas", "k": "ks"}, required=("gamma", "k"),
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
        keys={"id": "scenario_id"}, required=("dr0", "vi0", "vj0"), gains=gains,
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
