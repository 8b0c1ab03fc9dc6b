"""Run configuration: key=value files, CLI overrides, and the config hash.

Config files are plain ``key = value`` lines (``#`` comments allowed).
Unknown keys are rejected so typos fail loudly. The config hash covers only
``model.MODEL_SHAPE_KEYS``, the keys a checkpoint must match: ``hidden_size``
and ``num_layers`` set the parameter shapes, and the other three name the
forward pass the parameters were trained for. So train/predict runs can
check checkpoint compatibility without caring about, say, the learning rate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from pathlib import Path
from typing import Optional

from .model import ModelConfig
from .postprocess import (DEFAULT_PAIR_AGG, DEFAULT_THRESHOLD,
                          check_engraving_settings)
from .trainer import TrainConfig


class BadConfig(ValueError):
    pass


@dataclasses.dataclass
class RunConfig(ModelConfig, TrainConfig):
    """Every setting of a run: the model's and the training's, inherited from
    ``ModelConfig`` and ``TrainConfig``, plus the two engraving settings."""

    threshold: float = DEFAULT_THRESHOLD
    pair_agg: str = DEFAULT_PAIR_AGG

    def model_config(self) -> ModelConfig:
        return _project(self, ModelConfig)

    def train_config(self) -> TrainConfig:
        return _project(self, TrainConfig)

    def validate(self) -> None:
        ModelConfig.validate(self)
        TrainConfig.validate(self)
        check_engraving_settings(self.threshold, self.pair_agg)

    def to_text(self) -> str:
        """Effective configuration as a sorted, re-parseable key=value file."""
        lines = []
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if value is None:
                text = "none"
            elif isinstance(value, bool):
                text = "true" if value else "false"
            else:
                text = str(value)
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"


def _project(config: RunConfig, cls):
    return cls(**{f.name: getattr(config, f.name)
                  for f in dataclasses.fields(cls)})


_TYPES = typing.get_type_hints(RunConfig)


def _coerce(key: str, text: str):
    text = text.strip()
    kind = _TYPES[key]
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise BadConfig(f"{key}: {text!r} is not a boolean")
    if kind is int:
        try:
            return int(text)
        except ValueError as exc:
            raise BadConfig(f"{key}: {text!r} is not an integer") from exc
    if kind == Optional[float]:
        if text.lower() in ("none", ""):
            return None
        kind = float
    if kind is float:
        try:
            return float(text)
        except ValueError as exc:
            raise BadConfig(f"{key}: {text!r} is not a number") from exc
    return text


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfig(f"{source}:{lineno}: expected key = value, "
                            f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _TYPES:
            raise BadConfig(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise BadConfig(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, value)
    return values


def load_run_config(path: Optional[Path] = None,
                    overrides: Optional[dict] = None) -> RunConfig:
    """Defaults, then the config file, then CLI overrides; validated."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise BadConfig(f"config file {path} does not exist")
        values.update(parse_config_text(path.read_text(encoding="utf-8"),
                                        source=str(path)))
    for key, value in (overrides or {}).items():
        if key not in _TYPES:
            raise BadConfig(f"unknown override {key!r}")
        if value is not None:
            values[key] = value
    config = RunConfig(**values)
    try:
        config.validate()
    except ValueError as exc:
        raise BadConfig(str(exc)) from exc
    return config


def config_hash(config: RunConfig) -> str:
    """Hash of the shape-determining keys only (12 hex chars)."""
    blob = json.dumps(config.shape_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]
