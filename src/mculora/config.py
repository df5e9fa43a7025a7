"""Flat key=value experiment configuration and run manifests.

:class:`ExperimentConfig` is the one schema of experiment settings: the
generator, the model, the trainer and evaluation all read their fields from
it, and its :meth:`~ExperimentConfig.validate` is the only range check: the
functions that take its fields, such as :func:`mculora.synthgen.split_bounds`
and :func:`mculora.synthgen.apply_random_missing`, trust a validated config
and check nothing again. It checks checkpoints too:
:func:`mculora.model.load_checkpoint` validates the sizes read off a
checkpoint's arrays, with its alpha, as an ``ExperimentConfig``. Config
files are plain text: one ``key = value`` per line, ``#`` comments, blank
lines ignored.
Every key is typed and validated against the schema below; unknown keys, a
key set on two lines (named with both line numbers), malformed values and
out-of-range values (NaN and infinities included) are rejected with the
field named. A run's settings come from its config file alone: no
command-line flag overrides a key.
The resolved snapshot is echoed into each run's ``manifest.json`` together
with the seed and SHA-256 checksums of every written artifact, so a
run can be reproduced byte for byte (wallclock columns excepted). Each digest
is the one its writer returned (see :mod:`mculora.serialize`); no artifact is
read back to be hashed.

All randomness in a command flows from one root seed, fanned out to named
child streams (data, init, sampling, ...), so e.g. ablation runs that share a
seed also share initialization.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .errors import ConfigError
from .serialize import write_text


def _parse_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("on", "true", "1", "yes"):
        return True
    if val in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


@dataclass
class ExperimentConfig:
    # data generation
    num_samples: int = 2000
    seq_len: int = 8
    raw_dim: int = 16
    classes: int = 4
    shared_dim: int = 4
    private_dim: int = 2
    shared_strength: float = 1.0
    private_strength: float = 0.6
    pair_interaction_strength: float = 0.8
    noise_std: float = 1.0
    # splits
    train_frac: float = 0.7
    val_frac: float = 0.15
    # model and optimization
    model_dim: int = 32
    rank: int = 4
    alpha: float = 1.0
    pretrain_epochs: int = 100
    finetune_epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-4
    beta: float = 0.001
    dropout: float = 0.5
    mcla: bool = True
    dpft: bool = True
    # schedule
    p_min: float = 0.05
    p_max: float = 0.5
    q_base: float = 0.1
    lam: float = 1.0
    reduce_fast_learners: bool = True
    probe_size: int = 256
    # protocols
    mask_lo: float = 0.4
    mask_hi: float = 0.6
    eval_seed: int = 66
    # root seed
    seed: int = 66

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("num_samples", "seq_len", "raw_dim", "shared_dim", "private_dim", "model_dim", "rank",
                     "pretrain_epochs", "finetune_epochs", "batch_size", "probe_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("shared_strength", "private_strength", "pair_interaction_strength", "noise_std", "beta",
                     "seed", "eval_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if not (0 < self.train_frac < 1 and 0 <= self.val_frac < 1
                and self.train_frac + self.val_frac < 1):
            raise ConfigError(f"train_frac/val_frac leave no test split: {self.train_frac}, {self.val_frac}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (0.0 <= self.mask_lo <= self.mask_hi <= 1.0):
            raise ConfigError(f"mask_lo/mask_hi must satisfy 0 <= mask_lo <= mask_hi <= 1, "
                              f"got [{self.mask_lo}, {self.mask_hi}]")
        # the schedule starts uniform over the 7 combinations, inside [p_min, p_max]
        if not (0.0 < self.p_min < self.p_max < 1.0 and self.p_min <= 1 / 7 <= self.p_max):
            raise ConfigError(f"p_min/p_max must satisfy 0 < p_min <= 1/7 <= p_max < 1 with p_min < p_max, "
                              f"got [{self.p_min}, {self.p_max}]")
        if not 0.0 < self.q_base < 1.0:
            raise ConfigError(f"q_base must be in (0, 1), got {self.q_base}")
        if self.lam <= 0.0:
            raise ConfigError(f"lam must be > 0, got {self.lam}")
        return self

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: config key {key!r} is set twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        try:
            setattr(cfg, key, _convert(key, value))
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: field {key}: {exc}") from exc
    return cfg.validate()


def _convert(key: str, value: str):
    """The value of `key` in the text `value`; each field is annotated (as a
    string, under ``from __future__ import annotations``) int, float or bool."""
    return {"int": int, "float": float, "bool": _parse_bool}[_FIELD_TYPES[key]](value)


def load_config(path) -> ExperimentConfig:
    """The config file at `path`, parsed and validated."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8, ...
        raise ConfigError(f"config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

@functools.cache
def version_string() -> str:
    """The package version, plus `git describe` of the checkout holding the
    package when there is one (whatever the working directory). Computed once
    per process: the code already imported cannot change within it. A `git`
    that is missing, fails or hangs past the timeout gives the bare version."""
    import subprocess
    try:
        described = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, check=False,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        described = ""
    return f"{__version__}+{described}" if described else __version__


def write_manifest(out_dir, command: str, config: ExperimentConfig, config_path: str,
                   artifacts: dict[str, str]) -> None:
    """Write ``manifest.json``; `artifacts` maps each file written to the
    SHA-256 its writer returned."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config_path": config_path,
        "config": config.echo(),
        "seed": config.seed,
        "out_dir": str(out_dir),
        "artifacts": dict(sorted(artifacts.items())),
        "version": version_string(),
    }
    write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
