"""Config dataclass, flat file format, and the echo round-trip."""

import os
import re
from dataclasses import fields

import pytest

from uqtrain.config import (
    TrainConfig,
    apply_overrides,
    echo_config,
    load_config_file,
    parse_config_text,
    write_config_echo,
)
from uqtrain.errors import ConfigError


def test_defaults_carry_published_hyperparameters():
    cfg = TrainConfig()
    assert cfg.batch_size == 128
    assert cfg.weight_decay == 1e-4
    assert cfg.triplet_weight == 0.003
    assert cfg.mined_fraction == 0.2
    assert cfg.margin == 1.0
    cfg.validate()


def test_echo_parse_round_trip_is_exact():
    cfg = TrainConfig(seed=7, lr=0.00123, epochs=17,
                      num_blocks=3, hidden_grid="8x3x2",
                      use_negative_branch=False, use_triplet_term=False)
    text = echo_config(cfg)
    back = parse_config_text(text)
    assert back == cfg
    assert echo_config(back) == text


def test_echo_writes_every_field_once():
    text = echo_config(TrainConfig())
    keys = [line.split("=")[0].strip() for line in text.strip().split("\n")]
    assert keys == [f.name for f in fields(TrainConfig)]


def test_parse_handles_comments_and_blank_lines():
    cfg = parse_config_text(
        "# experiment config\n\nseed = 3\nlr = 0.01   # inline note\n")
    assert cfg.seed == 3
    assert cfg.lr == 0.01


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError):
        parse_config_text("learning_rate = 0.1\n")


def test_malformed_line_is_an_error():
    with pytest.raises(ConfigError):
        parse_config_text("seed 3\n")


def test_type_coercion_and_bool_words():
    cfg = parse_config_text(
        "compensation = false\nuse_triplet_term = true\n"
        "batch_size = 64\nlr = 2e-3\n", TrainConfig(use_triplet_term=False))
    assert cfg.compensation is False
    assert cfg.use_triplet_term is True
    assert cfg.batch_size == 64
    assert cfg.lr == 0.002
    with pytest.raises(ConfigError):
        parse_config_text("compensation = yes\n")
    with pytest.raises(ConfigError):
        parse_config_text("batch_size = twelve\n")


def test_apply_overrides_wins_over_file_values():
    base = parse_config_text("seed = 1\nlr = 0.1\n")
    out = apply_overrides(base, {"lr": "0.5", "epochs": "3"})
    assert out.lr == 0.5
    assert out.epochs == 3
    assert out.seed == 1
    with pytest.raises(ConfigError):
        apply_overrides(base, {"nope": "1"})


def test_config_file_round_trip(tmp_path):
    cfg = TrainConfig(seed=9, epochs=5, head_lr_multiplier=2.5)
    path = os.path.join(tmp_path, "run.cfg")
    write_config_echo(cfg, path)
    assert load_config_file(path) == cfg


def test_validate_rejects_bad_values():
    bad = [
        {"batch_size": 1},
        {"epochs": 0},
        {"lr": 0.0},
        {"weight_decay": -1.0},
        {"head_lr_multiplier": 0.0},
        {"triplet_weight": -0.1},
        {"mined_fraction": 1.5},
        {"margin": -1.0},
        {"embed_dim": 0},
        {"num_blocks": 0},
        {"hidden_grid": "16x2"},
        {"hidden_grid": "axbxc"},
        {"data_train": "h#1/tr.csv"},
        {"data_test": "runs/\nte.csv"},
        {"data_train": " tr.csv"},
        {"data_test": "te.csv "},
        {"use_positive_branch": False},
        {"use_negative_branch": False},
    ]
    for kw in bad:
        with pytest.raises(ConfigError, match=next(iter(kw))):
            TrainConfig(**kw).validate()


def test_grid_and_layers_resolution():
    assert TrainConfig(hidden_grid="8x4x2").parse_grid() == (8, 4, 2)


def test_hidden_grid_needs_spatial_extent():
    with pytest.raises(ConfigError):
        TrainConfig(hidden_grid="16x1x1").validate()


def readme_config_rows():
    """(key, default cell, backticked values) per row of the README's
    configuration table."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        key = cells[0].strip("`")
        values = re.findall(r"`([^`]+)`", cells[1] + " " + cells[2])
        rows.append((key, cells[1].strip("`"), values))
    return rows


def test_readme_configuration_table_matches_config():
    rows = readme_config_rows()
    assert len(rows) >= 10
    names = {f.name for f in fields(TrainConfig)}
    keys = [key for key, _, _ in rows]
    assert len(keys) == len(set(keys)), "README documents a key twice"
    assert set(keys) == names, "README table must list every config field"
    for key, default, values in rows:
        assert key in names, f"README documents unknown key {key!r}"
        documented = apply_overrides(TrainConfig(), {key: default})
        assert getattr(documented, key) == getattr(TrainConfig(), key), key
        for value in values:
            apply_overrides(TrainConfig(), {key: value}).validate()
