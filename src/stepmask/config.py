"""Run configuration: one JSON file drives the whole pipeline.

Sections: corpus, model, mask, pretrain, finetune, benchmarks, paths, plus a
global seed. `TYPES` gives each key's JSON type; unknown keys and wrong types
are rejected with their full path. `--set section.key=value` overrides
individual entries. The config digest covers every result-determining
section but not paths, so reruns into different directories produce
identical digests and identical reports.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import Literal

from .corpus import CorpusConfig
from .errors import ConfigError
from .model import ModelConfig
from .schema import check, field_types, from_json, read_json
from .training import MaskSpec, OptimizerConfig
from .downstream import FinetuneConfig

# The fields of the dataclass a section builds, less the model fields that
# come from the corpus; by hand, the keys that only the CLI reads.
TYPES = {
    "seed": int,
    "corpus": field_types(CorpusConfig),
    "model": {
        **{k: t for k, t in field_types(ModelConfig).items() if k not in ("d_in", "s", "num_tasks")},
        "max_positions": int | None,  # null: derived from the corpus
    },
    "mask": field_types(MaskSpec),
    "pretrain": {
        "loss": str, "epochs": int, "recipe": Literal["two-phase", None], "accumulate": int,
        "reduction": str, "optimizer": field_types(OptimizerConfig),
    },
    "finetune": {
        "task": str, **{k: t for k, t in field_types(FinetuneConfig).items() if k != "task_kind"},
    },
    "benchmarks": {"kinds": list[str], "instances_per_video": int, "same_task_donor": bool},
    "paths": dict.fromkeys(("corpus_dir", "checkpoints_dir", "reports_dir", "benchmarks_dir"), str),
}

DEFAULTS = {
    "seed": 0,
    "corpus": {
        "num_tasks": 4, "steps_per_task": 5, "vocab_size": 24, "videos_per_task": 8,
        "feature_noise_sigma": 0.1, "asr_noise": 0.0, "feature_dim": 32,
        "split_ratios": [0.8, 0.1, 0.1],
    },
    "model": {
        "d": 64, "layers": 2, "heads": 4, "max_positions": None, "mlp_ratio": 4.0,
        "use_positional": True,
    },
    "mask": {"ratio": 0.15, "resample_if_empty": True},
    "pretrain": {
        "loss": "sc", "epochs": 100, "recipe": None, "accumulate": 1, "reduction": "mean",
        "optimizer": {"kind": "adamw", "lr": 1e-3, "weight_decay": 0.0, "schedule": []},
    },
    "finetune": {
        "task": "proc_rec", "mode": "finetune", "use_task_label": False,
        "lr": 0.005, "epochs": 50, "schedule": [[30, 0.1], [40, 0.1]],
        "optimizer": "sgd_momentum", "momentum": 0.9, "weight_decay": 0.0,
    },
    "benchmarks": {"kinds": list(), "instances_per_video": 1, "same_task_donor": False},
    "paths": {
        "corpus_dir": "out/corpus", "checkpoints_dir": "out/checkpoints",
        "reports_dir": "out/reports", "benchmarks_dir": "out/benchmarks",
    },
}


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
        check(TYPES, data)
        self.data = _deep_merge(DEFAULTS, data)

    @classmethod
    def load(cls, path, overrides=(), seed: int | None = None) -> "RunConfig":
        data = read_json(path)
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        cfg = cls(data)
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set {item!r}: expected section.key=value")
            dotted, _, raw = item.partition("=")
            cfg.set_override(dotted.strip(), _parse_value(raw.strip()))
        if seed is not None:
            cfg.set_override("seed", seed)
        return cfg

    def set_override(self, dotted: str, value):
        *parents, leaf = dotted.split(".")
        probe = {leaf: value}
        for k in reversed(parents):
            probe = {k: probe}
        check(TYPES, probe)
        target = self.data
        for k in parents:
            target = target.setdefault(k, {})
        target[leaf] = value

    @property
    def seed(self) -> int:
        return self.data["seed"]

    def digest(self) -> str:
        payload = {k: v for k, v in self.data.items() if k != "paths"}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()

    def path(self, name: str) -> str:
        return self.data["paths"][name]

    def corpus_config(self) -> CorpusConfig:
        return from_json(CorpusConfig, {"seed": self.seed, **self.data["corpus"]}, "corpus")

    def mask_spec(self) -> MaskSpec:
        return from_json(MaskSpec, {"seed": self.seed, **self.data["mask"]}, "mask")

    def model_config(self, *, d_in: int, s: int, num_tasks: int, max_k: int) -> ModelConfig:
        section = dict(self.data["model"], d_in=d_in, s=s, num_tasks=num_tasks)
        if section["max_positions"] is None:
            section["max_positions"] = max(max_k + 2, 4)
        if section["max_positions"] < max_k + 2:
            raise ConfigError(f"model.max_positions={section['max_positions']} cannot hold "
                              f"{max_k} clips plus reserved tokens")
        return from_json(ModelConfig, section, "model")

    def pretrain_optimizer(self) -> OptimizerConfig:
        return from_json(OptimizerConfig, self.data["pretrain"]["optimizer"], "pretrain.optimizer")

    def finetune_config(self, task: str | None = None) -> FinetuneConfig:
        section = {"seed": self.seed, **self.data["finetune"]}
        kind = section.pop("task")
        return from_json(FinetuneConfig, {**section, "task_kind": task or kind}, "finetune")
