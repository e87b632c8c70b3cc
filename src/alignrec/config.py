"""Run configuration: a sectioned key=value file with strict validation.

Every training hyper-parameter defaults to the values the engine was tuned
around, so a minimal config only needs the [paths] section. Unknown sections
or keys are rejected outright to catch typos in loss-weight names.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .protocols import ProtocolConfig
from .trainer import TrainConfig

# [train] key -> (field, parser); alpha, beta, lambda and tau are LossWeights
# fields, the rest TrainConfig fields. Defaults are the dataclass defaults.
_TRAIN_KEYS = {
    "learning_rate": ("learning_rate", float), "batch_size": ("batch_size", int),
    "max_epochs": ("max_epochs", int), "patience": ("patience", int),
    "gcn_layers": ("gcn_layers", int), "k_prime": ("k_prime", int),
    "embed_dim": ("d_e", int), "mlp_hidden": ("d_h", int),
    "optimizer": ("optimizer", str), "lr_decay": ("lr_decay", float),
    "seed": ("seed", int),
    "alpha": ("alpha", float), "beta": ("beta", float),
    "lambda": ("lambda_", float), "tau": ("tau", float),
}
_WEIGHT_KEYS = {"alpha", "beta", "lambda", "tau"}

_SCHEMA = {
    "paths": {"interactions", "features", "item_list", "masked_features", "output_dir"},
    "split": {"k_core", "ratios", "strategy", "seed"},
    "train": _TRAIN_KEYS,
    "eval": {"ks", "longtail_threshold", "longtail"},
    "protocol": {"protocols", "ks", "mask_ratio", "mask_seed", "mask_base"},
    "grid": _TRAIN_KEYS,  # each key sweeps the [train] key of the same name
}


@dataclass
class RunConfig:
    interactions: Path
    features: Path | None
    item_list: Path | None
    output_dir: Path
    masked_features: Path | None
    k_core: int
    ratios: tuple[float, float, float]
    strategy: str
    split_seed: int
    train: TrainConfig
    eval_ks: tuple[int, ...]
    longtail_threshold: float
    longtail: bool
    protocols: tuple[str, ...]
    protocol: ProtocolConfig
    mask_base: str
    grid: dict[str, list[str]] = field(default_factory=dict)
    text: str = ""


def _get(parser, section, key, default):
    if parser.has_option(section, key):
        return parser.get(section, key)
    return default


def _options(parser, section) -> dict[str, str]:
    return dict(parser.items(section)) if parser.has_section(section) else {}


def _parse_number(text, kind, where):
    try:
        return kind(text)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: cannot parse '{text}' as {kind.__name__}") from None


def _parse_bool(text, where):
    lowered = str(text).strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: cannot parse '{text}' as a boolean")


def _parse_ks(text, where) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise ConfigError(f"{where}: expected comma-separated integers, got '{text}'") from None
    if not ks or any(k < 1 for k in ks):
        raise ConfigError(f"{where}: K values must be positive")
    if len(set(ks)) != len(ks):
        raise ConfigError(f"{where}: repeated K in '{text}'")
    return ks


def parse_train(base: TrainConfig, values, section: str) -> TrainConfig:
    """`base` with the [train] keys in `values` (key -> text) parsed in;
    dataclasses.replace reruns the TrainConfig and LossWeights checks."""
    train, weights = {}, {}
    for key, text in values.items():
        name, kind = _TRAIN_KEYS[key]
        (weights if key in _WEIGHT_KEYS else train)[name] = _parse_number(
            text, kind, f"[{section}] {key}")
    return replace(base, weights=replace(base.weights, **weights), **train)


def load_config(path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    text = path.read_text(encoding="utf-8")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")

    if not parser.has_section("paths") or not parser.has_option("paths", "interactions"):
        raise ConfigError(f"{path}: [paths] interactions is required")
    base = path.parent

    def _path(key, default=None):
        raw = _get(parser, "paths", key, default)
        if raw is None or raw == "":
            return None
        p = Path(raw)
        return p if p.is_absolute() else base / p

    interactions = _path("interactions")
    if not interactions.exists():
        raise ConfigError(f"interactions file {interactions} does not exist")
    output_dir = _path("output_dir", "out")

    split_seed = _parse_number(_get(parser, "split", "seed", "2024"), int, "[split] seed")

    ratios_raw = _get(parser, "split", "ratios", "0.8,0.1,0.1")
    try:
        ratios = tuple(float(part) for part in str(ratios_raw).split(","))
    except ValueError:
        raise ConfigError(f"[split] ratios: cannot parse '{ratios_raw}'") from None
    if len(ratios) != 3:
        raise ConfigError(f"[split] ratios needs three fractions, got {len(ratios)}")

    train = parse_train(TrainConfig(), _options(parser, "train"), "train")
    if seed_override is not None:
        split_seed = seed_override
        train = replace(train, seed=seed_override)

    protocols_raw = _get(parser, "protocol", "protocols", "zero_shot,item_cf")
    protocols = tuple(p.strip() for p in str(protocols_raw).split(",") if p.strip())
    for p in protocols:
        if p not in ("zero_shot", "item_cf", "mask_modality"):
            raise ConfigError(f"[protocol] unknown protocol '{p}'")
    mask_base = _get(parser, "protocol", "mask_base", "zero_shot")
    if mask_base not in ("zero_shot", "item_cf"):
        raise ConfigError(f"[protocol] mask_base must be zero_shot or item_cf, got '{mask_base}'")
    protocol = {}
    if parser.has_option("protocol", "ks"):
        protocol["ks"] = _parse_ks(parser.get("protocol", "ks"), "[protocol] ks")
    for key, kind in (("mask_ratio", float), ("mask_seed", int)):
        if parser.has_option("protocol", key):
            protocol[key] = _parse_number(parser.get("protocol", key), kind,
                                          f"[protocol] {key}")

    grid = {key: [part.strip() for part in text.split(",")]
            for key, text in _options(parser, "grid").items()}

    return RunConfig(
        interactions=interactions,
        features=_path("features"),
        item_list=_path("item_list"),
        output_dir=output_dir,
        masked_features=_path("masked_features"),
        k_core=_parse_number(_get(parser, "split", "k_core", "5"), int, "[split] k_core"),
        ratios=ratios,
        strategy=_get(parser, "split", "strategy", "random"),
        split_seed=split_seed,
        train=train,
        eval_ks=_parse_ks(_get(parser, "eval", "ks", "10,20,50"), "[eval] ks"),
        longtail_threshold=_parse_number(_get(parser, "eval", "longtail_threshold", "4"),
                                         float, "[eval] longtail_threshold"),
        longtail=_parse_bool(_get(parser, "eval", "longtail", "false"), "[eval] longtail"),
        protocols=protocols,
        protocol=ProtocolConfig(**protocol),
        mask_base=mask_base,
        grid=grid,
        text=text)


def require_features(cfg: RunConfig) -> None:
    if cfg.features is None or cfg.item_list is None:
        raise ConfigError("[paths] features and item_list are required for this command")
    if not cfg.features.exists():
        raise ConfigError(f"feature file {cfg.features} does not exist")
    if not cfg.item_list.exists():
        raise ConfigError(f"item list {cfg.item_list} does not exist")
