"""Tests for config file parsing, overrides, and the shape hash."""

import dataclasses
import hashlib
import json

import pytest

from notesetter.config import (
    BadConfig,
    RunConfig,
    config_hash,
    load_run_config,
    parse_config_text,
)
from notesetter.model import MODEL_SHAPE_KEYS, ModelConfig
from notesetter.trainer import TrainConfig


def test_to_text_round_trips_defaults():
    config = RunConfig()
    values = parse_config_text(config.to_text())
    assert RunConfig(**values) == config


def test_to_text_round_trips_non_defaults():
    config = RunConfig(seed=7, hidden_size=32, num_layers=1, dropout=0.25,
                       aggregation="mean", use_gru=False,
                       gru_on_initial_features=True, pair_agg="mean",
                       threshold=0.6, strict_same_bar_candidates=True,
                       epochs=3, lr=0.01, weight_decay=0.0, val_fraction=0.0,
                       clip_norm=2.5)
    assert RunConfig(**parse_config_text(config.to_text())) == config


def test_to_text_formatting():
    text = RunConfig().to_text()
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert "clip_norm = none" in lines
    assert "use_gru = true" in lines
    assert "strict_same_bar_candidates = false" in lines
    assert text.endswith("\n")
    # every field appears exactly once
    assert len(lines) == len(dataclasses.fields(RunConfig))


def test_default_text_is_pinned():
    # The persisted format: existing config files and checkpoints rely on it.
    assert RunConfig().to_text() == (
        "aggregation = sum\n"
        "clip_norm = none\n"
        "dropout = 0.5\n"
        "epochs = 50\n"
        "gru_on_initial_features = false\n"
        "hidden_size = 256\n"
        "lr = 0.001\n"
        "num_layers = 3\n"
        "pair_agg = max\n"
        "seed = 0\n"
        "strict_same_bar_candidates = false\n"
        "threshold = 0.5\n"
        "use_gru = true\n"
        "val_fraction = 0.1\n"
        "weight_decay = 0.0005\n")


def test_default_hash_is_pinned():
    assert config_hash(RunConfig()) == "411583bb91c5"


def test_each_field_is_declared_once():
    model = {f.name for f in dataclasses.fields(ModelConfig)}
    train = {f.name for f in dataclasses.fields(TrainConfig)}
    assert not model & train
    run = {f.name for f in dataclasses.fields(RunConfig)}
    assert run - model - train == {"threshold", "pair_agg"}


def test_projections_carry_every_field():
    config = RunConfig(seed=7, hidden_size=32, dropout=0.25, lr=0.01,
                       strict_same_bar_candidates=True, clip_norm=2.5)
    assert config.model_config() == ModelConfig(
        hidden_size=32, dropout=0.25, strict_same_bar_candidates=True)
    assert config.train_config() == TrainConfig(seed=7, lr=0.01,
                                                clip_norm=2.5)


def test_parse_skips_comments_and_blanks():
    values = parse_config_text(
        "# a comment\n\nlr = 0.01  # trailing comment\n   \nseed = 3\n")
    assert values == {"lr": 0.01, "seed": 3}


def test_parse_unknown_key_reports_location():
    with pytest.raises(BadConfig, match=r"myfile:3.*learning_rate"):
        parse_config_text("seed = 1\n# ok\nlearning_rate = 0.1\n",
                          source="myfile")


def test_parse_duplicate_key():
    with pytest.raises(BadConfig, match=r":2.*duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_parse_missing_equals():
    with pytest.raises(BadConfig, match=r":1"):
        parse_config_text("just some words\n")


@pytest.mark.parametrize("text,expected", [
    ("true", True), ("1", True), ("yes", True), ("on", True), ("TRUE", True),
    ("false", False), ("0", False), ("no", False), ("off", False),
])
def test_parse_bool_spellings(text, expected):
    assert parse_config_text(f"use_gru = {text}\n")["use_gru"] is expected


def test_parse_bad_bool():
    with pytest.raises(BadConfig, match="boolean"):
        parse_config_text("use_gru = maybe\n")


def test_parse_bad_int():
    with pytest.raises(BadConfig, match="integer"):
        parse_config_text("hidden_size = big\n")


def test_parse_bad_float():
    with pytest.raises(BadConfig, match="number"):
        parse_config_text("lr = fast\n")


def test_parse_clip_norm_none_and_value():
    assert parse_config_text("clip_norm = none\n")["clip_norm"] is None
    assert parse_config_text("clip_norm = 2.5\n")["clip_norm"] == 2.5


def test_load_missing_file(tmp_path):
    with pytest.raises(BadConfig, match="does not exist"):
        load_run_config(tmp_path / "nope.cfg")


def test_load_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("hidden_size = 64\nlr = 0.01\n")
    config = load_run_config(path, overrides={"hidden_size": 32,
                                              "epochs": None})
    assert config.hidden_size == 32      # override beats file
    assert config.lr == 0.01             # file beats default
    assert config.epochs == 50           # None override is skipped


def test_load_without_file_uses_defaults():
    assert load_run_config() == RunConfig()


def test_load_unknown_override():
    with pytest.raises(BadConfig, match="override"):
        load_run_config(overrides={"hidden": 32})


@pytest.mark.parametrize("overrides", [
    {"dropout": 1.5},
    {"num_layers": 0},
    {"aggregation": "max"},
    {"threshold": 0.0},
    {"threshold": 1.0},
    {"pair_agg": "median"},
    {"lr": float("nan")},
    {"lr": -0.1},
    {"lr": 0.0},
    {"lr": float("inf")},
    {"weight_decay": -1.0},
    {"weight_decay": float("nan")},
    {"clip_norm": -1.0},
    {"clip_norm": 0.0},
    {"clip_norm": float("inf")},
    {"clip_norm": float("nan")},
])
def test_load_rejects_invalid_values(overrides):
    with pytest.raises(BadConfig):
        load_run_config(overrides=overrides)


def test_config_hash_matches_manual_oracle():
    config = RunConfig(hidden_size=16, num_layers=2)
    model = config.model_config()
    # [DERIVED] independent recomputation of the documented hash recipe.
    shape = {k: getattr(model, k) for k in MODEL_SHAPE_KEYS}
    expected = hashlib.sha256(
        json.dumps(shape, sort_keys=True).encode()).hexdigest()[:12]
    got = config_hash(config)
    assert got == expected
    assert len(got) == 12
    int(got, 16)  # valid hex


def test_config_hash_ignores_non_shape_keys():
    base = RunConfig()
    assert config_hash(base) == config_hash(
        dataclasses.replace(base, lr=0.5, epochs=1, dropout=0.0,
                            threshold=0.9, seed=99))


def test_config_hash_tracks_shape_keys():
    base = RunConfig()
    assert config_hash(base) != config_hash(
        dataclasses.replace(base, hidden_size=128))
    assert config_hash(base) != config_hash(
        dataclasses.replace(base, use_gru=False))
