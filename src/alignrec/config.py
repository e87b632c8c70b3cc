"""Run configuration: a sectioned key=value file with strict validation.

Every training hyper-parameter defaults to the values the engine was tuned
around, so a minimal config only needs the [paths] section. Unknown sections
or keys are rejected outright to catch typos in loss-weight names.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .binio import read_text
from .data import check_split
from .errors import ConfigError
from .evaluator import check_ks
from .losses import LossWeights
from .protocols import BASE_PROTOCOLS, ProtocolConfig
from .trainer import TrainConfig


@dataclass
class RunConfig:
    """Everything a run reads from the config file. The [split], [eval] and
    [protocol] defaults are the field defaults here; [train] ones live in
    TrainConfig and LossWeights, protocol ones in ProtocolConfig."""

    interactions: Path | None = None
    features: Path | None = None
    item_list: Path | None = None
    output_dir: Path = Path("out")
    masked_features: Path | None = None
    k_core: int = 5
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    strategy: str = "random"
    split_seed: int = 2024
    train: TrainConfig = field(default_factory=TrainConfig)
    eval_ks: tuple[int, ...] = (10, 20, 50)
    longtail_threshold: float = 4.0
    longtail: bool = False
    protocols: tuple[str, ...] = tuple(BASE_PROTOCOLS)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    mask_base: str = "zero_shot"
    grid: dict[str, list[str]] = field(default_factory=dict)
    text: str = ""

    def __post_init__(self):
        if self.output_dir is None:
            raise ConfigError("[paths] output_dir must not be empty")
        check_split(self.k_core, self.ratios, self.strategy, self.split_seed)
        check_ks(self.eval_ks, "[eval] ks")
        if math.isnan(self.longtail_threshold):
            raise ConfigError("[eval] longtail_threshold must not be nan")
        for name in self.protocols:
            if name not in BASE_PROTOCOLS and name != "mask_modality":
                raise ConfigError(f"[protocol] unknown protocol '{name}'")
        if self.mask_base not in BASE_PROTOCOLS:
            raise ConfigError(f"[protocol] mask_base must be one of "
                              f"{', '.join(BASE_PROTOCOLS)}, got '{self.mask_base}'")


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _path(text: str) -> Path | None:
    return Path(text) if text else None


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# section -> key -> (owner, field, parser). A key the file leaves out keeps
# its owner's field default, and the owner's __post_init__ range-checks it.
_SCHEMA = {
    "paths": {key: (RunConfig, key, _path) for key in (
        "interactions", "features", "item_list", "masked_features", "output_dir")},
    "split": {
        "k_core": (RunConfig, "k_core", int), "ratios": (RunConfig, "ratios", _floats),
        "strategy": (RunConfig, "strategy", str), "seed": (RunConfig, "split_seed", int),
    },
    "train": {
        "learning_rate": (TrainConfig, "learning_rate", float),
        "batch_size": (TrainConfig, "batch_size", int),
        "max_epochs": (TrainConfig, "max_epochs", int),
        "patience": (TrainConfig, "patience", int),
        "gcn_layers": (TrainConfig, "gcn_layers", int),
        "k_prime": (TrainConfig, "k_prime", int),
        "embed_dim": (TrainConfig, "d_e", int), "mlp_hidden": (TrainConfig, "d_h", int),
        "optimizer": (TrainConfig, "optimizer", str),
        "lr_decay": (TrainConfig, "lr_decay", float), "seed": (TrainConfig, "seed", int),
        "alpha": (LossWeights, "alpha", float), "beta": (LossWeights, "beta", float),
        "lambda": (LossWeights, "lambda_", float), "tau": (LossWeights, "tau", float),
    },
    "eval": {
        "ks": (RunConfig, "eval_ks", _ints),
        "longtail_threshold": (RunConfig, "longtail_threshold", float),
        "longtail": (RunConfig, "longtail", _bool),
    },
    "protocol": {
        "protocols": (RunConfig, "protocols", _names), "ks": (ProtocolConfig, "ks", _ints),
        "mask_ratio": (ProtocolConfig, "mask_ratio", float),
        "mask_seed": (ProtocolConfig, "mask_seed", int),
        "mask_base": (RunConfig, "mask_base", str),
    },
}
_SCHEMA["grid"] = _SCHEMA["train"]  # each key sweeps the [train] key of the same name


def _parse(values, section: str, into: dict) -> dict:
    """Parse `values` (key -> text) of a known section into `into`, a dict of
    owner -> {field: value}."""
    for key, text in values.items():
        owner, name, parse = _SCHEMA[section][key]
        try:
            into[owner][name] = parse(text)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: cannot parse '{text}'") from None
    return into


def parse_train(base: TrainConfig, values, section: str) -> TrainConfig:
    """`base` with the [train] keys in `values` (key -> text) parsed in;
    dataclasses.replace reruns the TrainConfig and LossWeights checks."""
    parsed = _parse(values, section, {TrainConfig: {}, LossWeights: {}})
    return replace(base, weights=replace(base.weights, **parsed[LossWeights]),
                   **parsed[TrainConfig])


def parse_config(text: str, where, seed_override: int | None = None) -> RunConfig:
    """Parse and range-check every section of config `text`, naming `where`
    in errors; [paths] values stay as written."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{where}: {exc}") from None

    parsed = {RunConfig: {}, TrainConfig: {}, LossWeights: {}, ProtocolConfig: {}}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{where}: unknown section [{section}]")
        values = dict(parser.items(section))
        for key in values:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{where}: unknown key '{key}' in section [{section}]")
        if section == "grid":
            parsed[RunConfig]["grid"] = {key: [part.strip() for part in raw.split(",")]
                                         for key, raw in values.items()}
        else:
            _parse(values, section, parsed)

    if seed_override is not None:
        parsed[RunConfig]["split_seed"] = parsed[TrainConfig]["seed"] = seed_override
    return RunConfig(
        train=TrainConfig(weights=LossWeights(**parsed[LossWeights]), **parsed[TrainConfig]),
        protocol=ProtocolConfig(**parsed[ProtocolConfig]), text=text,
        **parsed[RunConfig])


def load_config(path, seed_override: int | None = None) -> RunConfig:
    """Parse and range-check every section of a config file; reads no other file."""
    path = Path(path)
    check_file(path, "config file")
    cfg = parse_config(read_text(path, ConfigError), path, seed_override)
    # relative paths, defaults included, are relative to the config file
    for name in _SCHEMA["paths"]:
        if getattr(cfg, name) is not None:
            setattr(cfg, name, path.parent / getattr(cfg, name))
    return cfg


def check_file(path: Path, name: str) -> None:
    """Raise ConfigError unless `path`, the file `name`, exists and is not a
    directory; a device such as /dev/fd/N passes."""
    if not path.exists():
        raise ConfigError(f"{name} {path} does not exist")
    if path.is_dir():
        raise ConfigError(f"{name} {path} is a directory")
