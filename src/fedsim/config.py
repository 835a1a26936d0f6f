"""Experiment configuration: YAML schema, strict validation, defaults.

One experiment per file.  A key is a field of the dataclass its section
builds, with that field's type and default, so a new field is a new key
with no edit here.  Unknown keys are rejected with their full key path,
and a key repeated in one mapping with its line, so a misspelled or
repeated option can never silently fall back to a default.  Defaults fill
in 200 communication rounds and 5 local epochs.

A minimal config:

    algorithm: fedavg
    model:
      input: [128, 6]
      layers:
        - {kind: conv1d, width: 16, kernel: 16, activation: relu}
        - {kind: maxpool1d, kernel: 4}
        - {kind: dense, width: 64, activation: relu}
        - {kind: softmax-output, width: 8}
    data:
      synthetic:
        clients: 10
        classes: 8
        dirichlet_alpha: 0.1

See README.md for the full key reference.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import types
import typing

import yaml

from .arch import ModelArch
from .data import CsvDataSpec, SyntheticSpec
from .nn import TrainingConfig
from .scheduler import ExperimentConfig


class ConfigError(ValueError):
    """Raised for unparsable or invalid configuration."""


# Where the file's layout departs from the dataclasses.  local_epochs sits at
# the top level but lives in TrainingConfig, whose other keys are these three
# (the rest of it is set per round by the algorithms); data holds exactly one
# of the sources below; init_variant is set by rerun_with_final_shape, never
# by a file.
_TRAINING_KEYS = ("learning_rate", "batch_size", "proximal_coefficient")
_DATA_KINDS = {"synthetic": SyntheticSpec, "csv": CsvDataSpec}
_SECTIONS = ("model", "data", "training")
_PLAIN_KEYS = tuple(f.name for f in dataclasses.fields(ExperimentConfig)
                    if f.name not in (*_SECTIONS, "init_variant"))

# Resolving the annotations is most of the cost of a parse: once per class.
_hints = functools.cache(typing.get_type_hints)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _check_keys(mapping: dict, allowed, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} at {_join(path, key)}")


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(value).__name__}")
    return value


def _required(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required key {_join(path, key)}")
    return mapping[key]


def _typed(value, hint, path: str):
    """value checked against the resolved annotation hint.  An int is taken
    for a float, a float must be finite, a bool is never taken for an int, a
    list is read as a tuple element by element, and a mapping as a nested
    dataclass."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _typed(value, hint, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path} must hold {len(args)} items, got {len(value)}")
        return tuple(_typed(v, a, f"{path}[{i}]")
                     for i, (v, a) in enumerate(zip(value, args)))
    if dataclasses.is_dataclass(hint):
        return _build(hint, _values(hint, value, path), path)
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"{path} must be finite, got an int beyond the float range") from None
    if not isinstance(value, hint) or isinstance(value, bool) and hint is not bool:
        raise ConfigError(
            f"{path} must be {hint.__name__}, got {type(value).__name__}")
    if hint is float and not math.isfinite(value):
        raise ConfigError(f"{path} must be finite, got {value}")
    return value


def _values(cls, section, path: str, keys=None) -> dict:
    """Each key of section read as its field of cls; keys narrows the fields."""
    section = _require_mapping(section, path)
    hints = _hints(cls)
    _check_keys(section, keys or [f.name for f in dataclasses.fields(cls)], path)
    return {key: _typed(value, hints[key], _join(path, key))
            for key, value in section.items()}


def _build(cls, values: dict, path: str):
    """cls(**values); a field with no default must be among values."""
    for f in dataclasses.fields(cls):
        if (f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            _required(values, f.name, path)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from None


def _read_model(section) -> ModelArch:
    section = _require_mapping(section, "model")
    _check_keys(section, ("input", "layers"), "model")
    length, channels = _typed(_required(section, "input", "model"),
                              tuple[int, int], "model.input")
    layers = _typed(_required(section, "layers", "model"),
                    _hints(ModelArch)["layers"], "model.layers")
    return _build(ModelArch, {"input_length": length, "input_channels": channels,
                              "layers": layers}, "model")


def _read_data(section, seed: int) -> SyntheticSpec | CsvDataSpec:
    section = _require_mapping(section, "data")
    _check_keys(section, _DATA_KINDS, "data")
    if len(section) != 1:
        raise ConfigError("data needs exactly one of: synthetic, csv")
    ((kind, body),) = section.items()
    cls, path = _DATA_KINDS[kind], f"data.{kind}"
    values = _values(cls, body, path)
    if cls is SyntheticSpec and seed >= 0:
        # The generator's seed follows the experiment's; ExperimentConfig
        # rejects a negative one under its own key.
        values.setdefault("seed", seed)
    return _build(cls, values, path)


def parse_config_dict(raw: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed mapping."""
    raw = _require_mapping(raw, "config")
    _check_keys(raw, (*_PLAIN_KEYS, *_SECTIONS, "local_epochs"), "")
    values = _values(ExperimentConfig,
                     {k: v for k, v in raw.items() if k in _PLAIN_KEYS}, "")
    training = _values(TrainingConfig, raw.get("training", {}), "training",
                       _TRAINING_KEYS)
    if "local_epochs" in raw:
        training["local_epochs"] = _typed(raw["local_epochs"], int, "local_epochs")
    values["training"] = _build(TrainingConfig, training, "training")
    values["model"] = _read_model(_required(raw, "model", ""))
    values["data"] = _read_data(_required(raw, "data", ""),
                                values.get("seed", ExperimentConfig.seed))
    return _build(ExperimentConfig, values, "")


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a key repeated in one mapping, block or flow,
    where plain YAML keeps the last.  Merge keys (<<) still override as
    YAML defines them."""

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key, _value in node.value:
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                name = self.construct_object(key)
                if name in seen:
                    raise yaml.constructor.ConstructorError(
                        problem=f"repeated key {name!r}", problem_mark=key.start_mark)
                seen.add(name)
        return node


# YAML 1.1 reads a float only with a dot in its mantissa, so 1e-05, which
# json.dumps writes for 0.00001 in a manifest, would be a string.  The
# pattern needs an exponent, so an int such as 10 stays an int.
_UniqueKeyLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


def read_config(path) -> tuple[dict, dict | None]:
    """(the mapping of a YAML experiment config, or of a run manifest's
    resolved config, before parse_config_dict validates it; the host facts a
    manifest recorded, None for a plain config).  A key repeated in one
    mapping is an error, not an override."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}" if mark else ""
            raise ConfigError(f"cannot parse {path}{where}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read {path}: not UTF-8 ({exc})") from None
    if raw is None:
        raise ConfigError(f"{path} is empty")
    raw = _require_mapping(raw, "config")
    if "resolved_config" not in raw:
        return raw, None
    host = raw.get("host")  # a manifest; one from before host facts has none
    return (_require_mapping(raw["resolved_config"], "resolved_config"),
            host if isinstance(host, dict) else None)


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML experiment config (or a run manifest)."""
    return parse_config_dict(read_config(path)[0])


def _dump(value):
    """value as plain YAML data: a dataclass as the mapping of its fields,
    without a None that sits at a None default, and a tuple as a list."""
    if dataclasses.is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if not (f.default is None and getattr(value, f.name) is None)}
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Round-trippable plain mapping of a resolved config (all defaults
    expanded); parse_config_dict(config_to_dict(cfg)) == cfg."""
    out = {key: _dump(getattr(cfg, key)) for key in _PLAIN_KEYS}
    out["local_epochs"] = cfg.training.local_epochs
    out["model"] = {"input": [cfg.model.input_length, cfg.model.input_channels],
                    "layers": _dump(cfg.model.layers)}
    (kind,) = (k for k, cls in _DATA_KINDS.items() if isinstance(cfg.data, cls))
    out["data"] = {kind: _dump(cfg.data)}
    out["training"] = {key: getattr(cfg.training, key) for key in _TRAINING_KEYS}
    return out
