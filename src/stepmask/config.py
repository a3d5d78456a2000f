"""Run configuration: one JSON file drives the whole pipeline.

Sections: corpus, model, mask, pretrain, finetune, benchmarks, paths, plus a
global seed. Unknown keys are rejected with their full path. `--set
section.key=value` overrides individual entries. The config digest covers
every result-determining section but not paths, so reruns into different
directories produce identical digests and identical reports.
"""

from __future__ import annotations

import copy
import hashlib
import json

from .corpus import CorpusConfig
from .errors import ConfigError, ParseError
from .model import ModelConfig
from .training import MaskSpec, OptimizerConfig
from .downstream import FinetuneConfig

_OPTIMIZER_KEYS = {
    "kind", "lr", "momentum", "beta1", "beta2", "eps", "weight_decay", "schedule",
}

SCHEMA = {
    "seed": None,
    "corpus": {
        "num_tasks", "steps_per_task", "vocab_size", "videos_per_task",
        "feature_noise_sigma", "asr_noise", "feature_dim", "seed", "weak_topk",
        "skip_probability", "alternative_fraction", "label_share_rate",
        "embed_dim", "split_ratios",
    },
    "model": {
        "d", "layers", "heads", "max_positions", "mlp_ratio", "use_positional",
    },
    "mask": {"ratio", "resample_if_empty", "seed"},
    "pretrain": {
        "loss", "epochs", "recipe", "accumulate", "reduction", "optimizer",
    },
    "finetune": {
        "task", "mode", "use_task_label", "lr", "epochs", "schedule", "seed",
        "optimizer", "momentum", "weight_decay",
    },
    "benchmarks": {"kinds", "instances_per_video", "same_task_donor"},
    "paths": {"corpus_dir", "checkpoints_dir", "reports_dir", "benchmarks_dir"},
}

DEFAULTS = {
    "seed": 0,
    "corpus": {
        "num_tasks": 4,
        "steps_per_task": 5,
        "vocab_size": 24,
        "videos_per_task": 8,
        "feature_noise_sigma": 0.1,
        "asr_noise": 0.0,
        "feature_dim": 32,
        "split_ratios": [0.8, 0.1, 0.1],
    },
    "model": {
        "d": 64,
        "layers": 2,
        "heads": 4,
        "max_positions": None,
        "mlp_ratio": 4.0,
        "use_positional": True,
    },
    "mask": {"ratio": 0.15, "resample_if_empty": True},
    "pretrain": {
        "loss": "sc",
        "epochs": 100,
        "recipe": None,
        "accumulate": 1,
        "reduction": "mean",
        "optimizer": {"kind": "adamw", "lr": 1e-3, "weight_decay": 0.0, "schedule": []},
    },
    "finetune": {
        "task": "proc_rec",
        "mode": "finetune",
        "use_task_label": False,
        "lr": 0.005,
        "epochs": 50,
        "schedule": [[30, 0.1], [40, 0.1]],
        "optimizer": "sgd_momentum",
        "momentum": 0.9,
        "weight_decay": 0.0,
    },
    "benchmarks": {"kinds": list(), "instances_per_video": 1, "same_task_donor": False},
    "paths": {
        "corpus_dir": "out/corpus",
        "checkpoints_dir": "out/checkpoints",
        "reports_dir": "out/reports",
        "benchmarks_dir": "out/benchmarks",
    },
}


def _validate_keys(data: dict, path: str = ""):
    for key, value in data.items():
        where = f"{path}{key}"
        if path == "":
            if key not in SCHEMA:
                raise ConfigError(f"{where}: unknown key")
            allowed = SCHEMA[key]
            if allowed is not None:
                if not isinstance(value, dict):
                    raise ConfigError(f"{where}: expected an object")
                for sub, sval in value.items():
                    if sub not in allowed:
                        raise ConfigError(f"{where}.{sub}: unknown key")
                    if key == "pretrain" and sub == "optimizer":
                        if not isinstance(sval, dict):
                            raise ConfigError(f"{where}.optimizer: expected an object")
                        for ok in sval:
                            if ok not in _OPTIMIZER_KEYS:
                                raise ConfigError(f"{where}.optimizer.{ok}: unknown key")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


class RunConfig:
    """Validated, default-filled view over the run configuration dict."""

    def __init__(self, data: dict):
        _validate_keys(data)
        self.data = _deep_merge(DEFAULTS, data)

    @classmethod
    def load(cls, path, overrides=(), seed: int | None = None) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        cfg = cls(data)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set {item!r}: expected section.key=value")
            dotted, _, raw = item.partition("=")
            cfg.set_override(dotted.strip(), _parse_value(raw.strip()))
        if seed is not None:
            cfg.data["seed"] = int(seed)
        return cfg

    def set_override(self, dotted: str, value):
        keys = dotted.split(".")
        probe = {}
        node = probe
        for k in keys[:-1]:
            node[k] = {}
            node = node[k]
        node[keys[-1]] = value
        _validate_keys(probe)
        target = self.data
        for k in keys[:-1]:
            target = target.setdefault(k, {})
        target[keys[-1]] = value

    @property
    def seed(self) -> int:
        return int(self.data["seed"])

    def digest(self) -> str:
        payload = {k: v for k, v in self.data.items() if k != "paths"}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def path(self, name: str) -> str:
        return self.data["paths"][name]

    def corpus_config(self) -> CorpusConfig:
        section = dict(self.data["corpus"])
        section.setdefault("seed", self.seed)
        if isinstance(section.get("steps_per_task"), list):
            section["steps_per_task"] = tuple(section["steps_per_task"])
        if isinstance(section.get("split_ratios"), list):
            section["split_ratios"] = tuple(section["split_ratios"])
        try:
            return CorpusConfig(**section)
        except TypeError as exc:
            raise ConfigError(f"corpus: {exc}") from exc

    def mask_spec(self) -> MaskSpec:
        section = dict(self.data["mask"])
        section.setdefault("seed", self.seed)
        return MaskSpec(**section)

    def model_config(self, *, d_in: int, s: int, num_tasks: int, max_k: int) -> ModelConfig:
        section = dict(self.data["model"])
        max_positions = section.pop("max_positions")
        if max_positions is None:
            max_positions = max(max_k + 2, 4)
        if max_positions < max_k + 2:
            raise ConfigError(
                f"model.max_positions={max_positions} cannot hold {max_k} clips "
                "plus reserved tokens"
            )
        return ModelConfig(
            d_in=d_in, s=s, num_tasks=num_tasks, max_positions=int(max_positions),
            **section,
        )

    def pretrain_optimizer(self) -> OptimizerConfig:
        section = dict(self.data["pretrain"]["optimizer"])
        if isinstance(section.get("schedule"), list):
            section["schedule"] = [tuple(e) for e in section["schedule"]]
        return OptimizerConfig(**section)

    def finetune_config(self, task: str | None = None) -> FinetuneConfig:
        section = dict(self.data["finetune"])
        kind = task or section.pop("task")
        section.pop("task", None)
        if isinstance(section.get("schedule"), list):
            section["schedule"] = [tuple(e) for e in section["schedule"]]
        section.setdefault("seed", self.seed)
        return FinetuneConfig(task_kind=kind, **section)
