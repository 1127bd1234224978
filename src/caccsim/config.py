"""Parsing of the line-oriented configuration files.

All files share one shape: `key = value` lines under `[section]` headers,
with `#` comments.  A section is read into a settings dataclass by one
reader: each key is named after a field and parsed as the type of that
field's default, and missing optional keys keep the default.  Structurally
required keys raise with the file and key named.
"""

from __future__ import annotations

import configparser
from dataclasses import fields, replace
from enum import Enum

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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser


def _require(parser, section: str, key: str, path) -> str:
    if not parser.has_option(section, key):
        raise ValueError(f"{path}: missing required key {key!r} in [{section}]")
    return parser.get(section, key)


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _section(parser, section: str, defaults, path, **given):
    """defaults, a dataclass instance, with its fields read from [section].

    A key is parsed as the type of its field's default value: float, int,
    str or an Enum.  Other fields, such as nested settings, are not read;
    given sets them.
    """
    values = {}
    for f in fields(defaults):
        kind = type(getattr(defaults, f.name))
        enum = issubclass(kind, Enum)
        if not (enum or kind in (float, int, str)):
            continue
        if not parser.has_option(section, f.name):
            continue
        text = parser.get(section, f.name)
        try:
            values[f.name] = kind(text)
        except ValueError as exc:
            if not enum:
                raise
            raise ValueError(f"{path}: unknown {f.name} {text!r}") from exc
    return replace(defaults, **values, **given)


def load_build_config(path) -> BuildConfig:
    """Build and run settings from [build], [thresholds], [weights]."""
    parser = _read(path)
    defaults = BuildConfig()
    return _section(
        parser,
        "build",
        defaults,
        path,
        thresholds=_section(parser, "thresholds", defaults.thresholds, path),
        weights=_section(parser, "weights", defaults.weights, path),
    )


def load_axes(path) -> AxisGrid:
    """Axis grids from [axes] keys dr, vi, vj (comma-separated values)."""
    parser = _read(path)
    return AxisGrid(
        dr=_float_list(_require(parser, "axes", "dr", path)),
        vi=_float_list(_require(parser, "axes", "vi", path)),
        vj=_float_list(_require(parser, "axes", "vj", path)),
    )


def load_candidates(path) -> CandidateSets:
    """Candidate gain values from [candidates] keys gamma, k."""
    parser = _read(path)
    return CandidateSets(
        gammas=_float_list(_require(parser, "candidates", "gamma", path)),
        ks=_float_list(_require(parser, "candidates", "k", path)),
    )


def load_scenario(path) -> ScenarioConfig:
    """One scenario from [scenario] plus optional [controller_params]."""
    parser = _read(path)
    params: dict = {}
    if parser.has_section("controller_params"):
        params = {key: value for key, value in parser.items("controller_params")}
    scenario = ScenarioConfig(
        scenario_id=parser.get("scenario", "id", fallback=str(path)),
        dr0=float(_require(parser, "scenario", "dr0", path)),
        vi0=float(_require(parser, "scenario", "vi0", path)),
        vj0=float(_require(parser, "scenario", "vj0", path)),
        controller_params=params,
    )
    return _section(parser, "scenario", scenario, path)


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
