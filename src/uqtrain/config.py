"""Training configuration: one flat dataclass, one flat file format.

Config files are plain text, one `key = value` pair per line, `#` starts
a comment.  Unknown keys are an error, not a warning: a typo in an
experiment config must fail loudly.  echo_config writes every field in
declaration order with repr floats, so echo -> parse reproduces the
config bitwise.
"""

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .files import atomic_open

BOOL_WORDS = {"true": True, "false": False}


@dataclass
class TrainConfig:
    # reproducibility / schedule
    seed: int = 0
    batch_size: int = 128
    epochs: int = 100
    lr: float = 0.002
    weight_decay: float = 1e-4
    head_lr_multiplier: float = 10.0

    # objective
    triplet_weight: float = 0.003
    mined_fraction: float = 0.2
    margin: float = 1.0

    # architecture (vector backbone)
    embed_dim: int = 64
    hidden_grid: str = "16x2x2"
    num_blocks: int = 2

    # statistic compensation (of every backbone block)
    compensation: bool = True

    # ablation toggles
    use_positive_branch: bool = True
    use_negative_branch: bool = True
    use_triplet_term: bool = True

    # data
    data_train: str = ""
    data_test: str = ""

    def validate(self) -> "TrainConfig":
        if self.batch_size < 2:
            raise ConfigError("batch_size must be at least 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        for key in ("lr", "weight_decay", "head_lr_multiplier",
                    "triplet_weight", "margin"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got "
                                  f"{getattr(self, key)!r}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.head_lr_multiplier <= 0:
            raise ConfigError("head_lr_multiplier must be positive")
        if self.triplet_weight < 0:
            raise ConfigError("triplet_weight must be non-negative")
        if not 0.0 <= self.mined_fraction <= 1.0:
            raise ConfigError("mined_fraction must be in [0, 1]")
        if self.margin < 0:
            raise ConfigError("margin must be non-negative")
        if self.embed_dim < 1:
            raise ConfigError("embed_dim must be positive")
        if self.num_blocks < 1:
            raise ConfigError("num_blocks must be at least 1")
        # the triplet term belongs to the full method, with both partner
        # branches on; any other setting would echo a term that never ran
        off = [key for key in ("use_positive_branch", "use_negative_branch")
               if not getattr(self, key)]
        if self.use_triplet_term and off:
            raise ConfigError(
                "use_triplet_term needs both partner branches, got "
                + ", ".join(f"{key} = false" for key in off)
                + "; set use_triplet_term false")
        for key in ("data_train", "data_test"):
            path = getattr(self, key)
            # the config echo must parse back to the same path
            if "#" in path or path.splitlines() not in ([], [path]) \
                    or path != path.strip():
                raise ConfigError(f"{key} must not hold '#', a line break "
                                  f"or leading or trailing blanks, got "
                                  f"{path!r}")
        self.parse_grid()
        return self

    def parse_grid(self) -> tuple[int, int, int]:
        parts = self.hidden_grid.lower().split("x")
        if len(parts) != 3:
            raise ConfigError(f"hidden_grid must look like '16x2x2', got "
                              f"{self.hidden_grid!r}")
        try:
            c, h, w = (int(p) for p in parts)
        except ValueError:
            raise ConfigError(f"hidden_grid must hold integers, got "
                              f"{self.hidden_grid!r}") from None
        if min(c, h, w) < 1 or h * w < 2:
            raise ConfigError(f"hidden_grid dims invalid: {self.hidden_grid!r}")
        return c, h, w


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}


def _coerce(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype is bool:
        if raw.lower() not in BOOL_WORDS:
            raise ConfigError(f"{key}: expected true or false, got {raw!r}")
        return BOOL_WORDS[raw.lower()]
    if ftype is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") \
                from None
    if ftype is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") \
                from None
    return raw


def apply_overrides(cfg: TrainConfig, overrides: dict) -> TrainConfig:
    """Set key=value pairs on a config; unknown keys raise ConfigError."""
    for key, raw in overrides.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(cfg, key, _coerce(key, str(raw)))
    return cfg


def parse_config_text(text: str, cfg: TrainConfig | None = None) -> TrainConfig:
    cfg = cfg if cfg is not None else TrainConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{line.rstrip()!r}")
        key, raw = stripped.split("=", 1)
        apply_overrides(cfg, {key.strip(): raw.strip()})
    return cfg


def load_config_file(path: str, cfg: TrainConfig | None = None) -> TrainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, cfg)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: TrainConfig) -> str:
    """Render every field, declaration order, parse-compatible."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in fields(TrainConfig)]
    return "\n".join(lines) + "\n"


def write_config_echo(cfg: TrainConfig, path: str) -> None:
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(echo_config(cfg))
