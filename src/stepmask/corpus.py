"""Synthetic procedural-task corpora and annotation-file ingestion.

A corpus is a vocabulary of step labels plus a set of videos. Each video is
an ordered list of clips; a clip holds a feature vector standing in for a
frozen video backbone, the narration sentence it was weakly labeled from,
the weak label distribution, and the ground-truth label.

Generation is grammar-driven: every task owns a canonical step sequence,
optional per-position alternatives, and a per-position skip probability.
Clip features are the label's prototype vector (its description embedding
zero-padded or truncated to the feature dimension) plus isotropic Gaussian
noise, quantized through float32 so that the binary feature sidecar
round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
from dataclasses import dataclass, field, asdict
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    InvalidAnnotation,
    InvalidInput,
    ParseError,
    VocabularyMismatch,
)
from .schema import from_json, read_json, typed_fields
from .weaklabel import (
    LabelDistribution,
    StepVocabulary,
    TextEmbedder,
    weak_label_distribution,
)

logger = logging.getLogger(__name__)

FEATURE_MAGIC = b"STPF"
FEATURE_VERSION = 1
FEATURE_HEADER = 4 + 16  # magic, version, d_in, clip count

_TITLE_VERBS = [
    "whisk", "drill", "sand", "fold", "rinse", "clamp", "measure", "pour",
    "trim", "solder", "tighten", "brush", "slice", "press", "align", "seal",
]
_TITLE_NOUNS = [
    "batter", "panel", "bracket", "dough", "filter", "hinge", "frame",
    "mixture", "valve", "wire", "screw", "surface", "blade", "gasket",
    "joint", "lining",
]
_CORRUPTION_WORDS = [
    "um", "uh", "okay", "right", "so", "now", "here", "basically", "just",
    "really", "kind", "sort", "thing", "stuff", "bit", "maybe",
]


@dataclass
class CorpusConfig:
    """Knobs for synthetic corpus generation.

    steps_per_task may be a single int or an inclusive (min, max) range
    sampled per task.
    """

    num_tasks: int
    steps_per_task: int | tuple[int, int]
    vocab_size: int
    videos_per_task: int
    feature_noise_sigma: float
    asr_noise: float
    feature_dim: int
    seed: int
    weak_topk: int = 5
    skip_probability: float = 0.0
    alternative_fraction: float = 0.0
    label_share_rate: float = 0.0
    embed_dim: int = 32
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if min(self.num_tasks, self.videos_per_task) < 1:
            raise ConfigError("num_tasks and videos_per_task must be >= 1")
        ratios = self.split_ratios
        if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split_ratios must be 3 non-negative numbers summing to 1, got {ratios}")
        lo, hi = self.steps_range()
        if lo < 2:
            raise ConfigError("steps_per_task must be >= 2")
        if hi < lo:
            raise ConfigError("steps_per_task range inverted")
        if self.vocab_size < self.num_tasks:
            raise ConfigError("vocab_size must be >= num_tasks")
        if self.feature_noise_sigma < 0:
            raise ConfigError("feature_noise_sigma must be >= 0")
        if not 0.0 <= self.asr_noise < 1.0:
            raise ConfigError("asr_noise must lie in [0, 1)")
        if not 0.0 <= self.skip_probability < 1.0:
            raise ConfigError("skip_probability must lie in [0, 1)")
        if self.weak_topk < 1:
            raise ConfigError("weak_topk must be >= 1")

    def steps_range(self) -> tuple[int, int]:
        if isinstance(self.steps_per_task, int):
            return self.steps_per_task, self.steps_per_task
        lo, hi = self.steps_per_task
        return int(lo), int(hi)

    def to_dict(self) -> dict:
        d = asdict(self)
        if not isinstance(self.steps_per_task, int):
            d["steps_per_task"] = list(self.steps_range())
        d["split_ratios"] = list(self.split_ratios)
        return d


@dataclass
class TaskTemplate:
    """Grammar for one task: canonical label sequence, per-position
    substitutable alternatives, and the skip probability."""

    task_id: int
    name: str
    canonical_steps: list[int]
    alternatives: dict[int, list[int]] = field(default_factory=dict)
    skip_probability: float = 0.0

    def __post_init__(self):
        if len(self.canonical_steps) < 2:
            raise ConfigError(f"task {self.task_id}: needs >= 2 canonical steps")
        for pos, alts in self.alternatives.items():
            if len(set(alts)) != len(alts):
                raise ConfigError(f"task {self.task_id}: duplicate alternatives at {pos}")


@dataclass
class Clip:
    feature: np.ndarray  # (D_in,) float64, f32-representable values
    asr: str
    weak: LabelDistribution
    truth: int


@dataclass
class VideoRecord:
    video_id: str
    task_id: int
    clips: list[Clip]

    def __post_init__(self):
        if len(self.clips) < 2:
            raise InvalidInput(f"video {self.video_id}: needs >= 2 clips")

    @property
    def K(self) -> int:
        return len(self.clips)

    def truths(self) -> list[int]:
        return [c.truth for c in self.clips]

    def features(self) -> np.ndarray:
        return np.stack([c.feature for c in self.clips])


@dataclass
class Corpus:
    """A vocabulary plus videos, with enough metadata to rebuild files."""

    vocab: StepVocabulary
    videos: list[VideoRecord]
    task_names: dict[int, str]
    cfg: CorpusConfig | None = None
    templates: list[TaskTemplate] | None = None

    def __post_init__(self):
        self._by_id = {v.video_id: v for v in self.videos}
        if len(self._by_id) != len(self.videos):
            raise InvalidInput("duplicate video ids in corpus")

    def video(self, video_id: str) -> VideoRecord:
        return self._by_id[video_id]

    @cached_property
    def task_orderings(self) -> dict[int, set[tuple[int, ...]]]:
        """The label sequences of each task's videos, built on first use."""
        orderings: dict[int, set[tuple[int, ...]]] = {}
        for v in self.videos:
            orderings.setdefault(v.task_id, set()).add(tuple(v.truths()))
        return orderings

    @cached_property
    def clip_refs(self) -> dict[str, tuple[tuple[str, int], ...]]:
        """One (video_id, clip_index) tuple per clip, holding the video's own
        id string, built on first use: instances read from files share them."""
        return {
            v.video_id: tuple((v.video_id, i) for i in range(v.K)) for v in self.videos
        }

    def digest(self) -> str:
        payload = json.dumps(annotation_payload(self), sort_keys=True).encode("utf-8")
        sidecar = feature_sidecar_bytes(self.videos)
        return hashlib.sha256(payload + sidecar).hexdigest()


def video_hash_u64(video_id: str) -> int:
    digest = hashlib.sha256(video_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def project_to_feature_dim(vec: np.ndarray, d_in: int) -> np.ndarray:
    """Zero-pad or truncate an embedding to the clip-feature dimension."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape[0] >= d_in:
        return vec[:d_in].copy()
    out = np.zeros(d_in, dtype=np.float64)
    out[: vec.shape[0]] = vec
    return out


def label_prototypes(vocab: StepVocabulary, d_in: int) -> np.ndarray:
    """(S, D_in) matrix of per-label feature prototypes."""
    return np.stack([project_to_feature_dim(e, d_in) for e in vocab.embeddings])


def quantize_f32(vec: np.ndarray) -> np.ndarray:
    return vec.astype(np.float32).astype(np.float64)


def synthetic_vocabulary(vocab_size: int, embedder: TextEmbedder, seed: int) -> StepVocabulary:
    """Index-unique titles from a small verb/noun lexicon.

    Descriptions differ from titles only in capitalization so that the
    description embedding equals the title embedding, which is what lets
    clean narration recover the exact label.
    """
    rng = np.random.default_rng([seed, 11])
    titles = []
    for i in range(vocab_size):
        verb = _TITLE_VERBS[int(rng.integers(len(_TITLE_VERBS)))]
        noun = _TITLE_NOUNS[int(rng.integers(len(_TITLE_NOUNS)))]
        titles.append(f"step {i:03d} {verb} the {noun}")
    descriptions = [t.capitalize() for t in titles]
    return StepVocabulary.build(titles, descriptions, embedder)


def default_embedder(cfg: CorpusConfig) -> TextEmbedder:
    return TextEmbedder(dim=cfg.embed_dim, seed=cfg.seed)


def generate_task_library(cfg: CorpusConfig, vocab: StepVocabulary) -> list[TaskTemplate]:
    """Deterministically assign canonical steps and alternatives to tasks."""
    rng = np.random.default_rng([cfg.seed, 23])
    lo, hi = cfg.steps_range()
    fresh = iter(range(len(vocab)))
    used: list[int] = []
    templates = []
    for t in range(cfg.num_tasks):
        length = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        canonical: list[int] = []
        for _ in range(length):
            shareable = [u for u in used if u not in canonical]
            if shareable and rng.random() < cfg.label_share_rate:
                canonical.append(int(rng.choice(shareable)))
                continue
            for candidate in fresh:
                if candidate not in canonical:
                    canonical.append(candidate)
                    break
            else:
                raise ConfigError(
                    f"vocab_size={cfg.vocab_size} too small for {cfg.num_tasks} tasks "
                    f"of up to {hi} distinct steps"
                )
        used.extend(u for u in canonical if u not in used)
        alternatives: dict[int, list[int]] = {}
        for pos in range(length):
            if rng.random() < cfg.alternative_fraction:
                pool = [l for l in range(len(vocab)) if l not in canonical]
                if pool:
                    alternatives[pos] = [int(rng.choice(pool))]
        templates.append(
            TaskTemplate(
                task_id=t,
                name=f"task-{t:03d}",
                canonical_steps=canonical,
                alternatives=alternatives,
                skip_probability=cfg.skip_probability,
            )
        )
    return templates


def _corrupt_asr(title: str, noise: float, rng: np.random.Generator) -> str:
    if noise <= 0.0:
        return title
    tokens = title.split()
    for i in range(len(tokens)):
        if rng.random() < noise:
            tokens[i] = _CORRUPTION_WORDS[int(rng.integers(len(_CORRUPTION_WORDS)))]
    return " ".join(tokens)


def sample_video(
    template: TaskTemplate,
    vocab: StepVocabulary,
    cfg: CorpusConfig,
    draw_seed: int,
    *,
    embedder: TextEmbedder | None = None,
    prototypes: np.ndarray | None = None,
    video_id: str | None = None,
) -> VideoRecord:
    """Realize one video from a task grammar, deterministically in draw_seed.

    Each canonical position may be skipped (never taking the realized length
    below 2) and, where alternatives exist, the emitted label is a uniform
    choice over the canonical label and its alternatives.
    """
    embedder = embedder or default_embedder(cfg)
    if prototypes is None:
        prototypes = label_prototypes(vocab, cfg.feature_dim)
    rng = np.random.default_rng([cfg.seed, 31, draw_seed])
    n = len(template.canonical_steps)
    realized: list[int] = []
    for pos, label in enumerate(template.canonical_steps):
        skip_draw = rng.random()
        can_drop = len(realized) + (n - pos - 1) >= 2
        if can_drop and skip_draw < template.skip_probability:
            continue
        choices = [label] + template.alternatives.get(pos, [])
        realized.append(int(choices[int(rng.integers(len(choices)))]))
    clips = []
    for label in realized:
        feature = prototypes[label]
        if cfg.feature_noise_sigma > 0:
            feature = feature + rng.normal(0.0, cfg.feature_noise_sigma, cfg.feature_dim)
        feature = quantize_f32(feature)
        asr = _corrupt_asr(vocab.titles[label], cfg.asr_noise, rng)
        weak = weak_label_distribution(asr, vocab, embedder, cfg.weak_topk)
        clips.append(Clip(feature=feature, asr=asr, weak=weak, truth=label))
    vid = video_id or f"{template.name}-d{draw_seed:06d}"
    return VideoRecord(video_id=vid, task_id=template.task_id, clips=clips)


def generate_corpus(
    cfg: CorpusConfig,
    *,
    tie_prototypes: tuple[tuple[int, int], ...] = (),
    templates: list[TaskTemplate] | None = None,
    vocab: StepVocabulary | None = None,
) -> Corpus:
    """Build a full corpus from configuration.

    tie_prototypes maps label pairs (a, b) so that b's feature prototype is
    replaced by a's: the two labels become indistinguishable from features
    alone and only sequence context can separate them.
    """
    embedder = default_embedder(cfg)
    if vocab is None:
        vocab = synthetic_vocabulary(cfg.vocab_size, embedder, cfg.seed)
    if templates is None:
        templates = generate_task_library(cfg, vocab)
    prototypes = label_prototypes(vocab, cfg.feature_dim)
    for a, b in tie_prototypes:
        prototypes[b] = prototypes[a]
    videos = []
    for template in templates:
        for i in range(cfg.videos_per_task):
            draw_seed = template.task_id * cfg.videos_per_task + i
            videos.append(
                sample_video(
                    template,
                    vocab,
                    cfg,
                    draw_seed,
                    embedder=embedder,
                    prototypes=prototypes,
                    video_id=f"task{template.task_id:03d}-v{i:03d}",
                )
            )
    task_names = {t.task_id: t.name for t in templates}
    return Corpus(vocab=vocab, videos=videos, task_names=task_names, cfg=cfg, templates=templates)


@dataclass
class TwinCorpus:
    """Corpus where two labels share a feature prototype.

    The twins sit at fixed, distinct positions of two different tasks, so a
    feature-only classifier is at chance (0.5) on them while sequence context
    fully determines which twin is present.
    """

    corpus: Corpus
    twin_labels: tuple[int, int]
    twin_positions: dict[int, int]  # task_id -> clip position of its twin


def ambiguous_twin_corpus(
    *,
    videos_per_task: int = 40,
    filler_steps: int = 4,
    sigma: float = 0.05,
    seed: int = 0,
    feature_dim: int = 32,
    embed_dim: int = 32,
    weak_topk: int = 5,
) -> TwinCorpus:
    """Two tasks, one ambiguous twin label each (ids 0 and 1)."""
    steps_per_task = filler_steps + 1
    vocab_size = 2 + 2 * filler_steps
    cfg = CorpusConfig(
        num_tasks=2,
        steps_per_task=steps_per_task,
        vocab_size=vocab_size,
        videos_per_task=videos_per_task,
        feature_noise_sigma=sigma,
        asr_noise=0.0,
        feature_dim=feature_dim,
        seed=seed,
        weak_topk=weak_topk,
        embed_dim=embed_dim,
    )
    embedder = default_embedder(cfg)
    titles = ["twin step alpha", "twin step beta"]
    for t in range(2):
        titles.extend(f"task {t} filler {p}" for p in range(filler_steps))
    descriptions = [t.capitalize() for t in titles]
    vocab = StepVocabulary.build(titles, descriptions, embedder)

    pos_a, pos_b = 1, min(3, steps_per_task - 1)
    fillers_a = list(range(2, 2 + filler_steps))
    fillers_b = list(range(2 + filler_steps, 2 + 2 * filler_steps))
    canonical_a = fillers_a[:pos_a] + [0] + fillers_a[pos_a:]
    canonical_b = fillers_b[:pos_b] + [1] + fillers_b[pos_b:]
    templates = [
        TaskTemplate(task_id=0, name="task-twin-a", canonical_steps=canonical_a),
        TaskTemplate(task_id=1, name="task-twin-b", canonical_steps=canonical_b),
    ]
    corpus = generate_corpus(cfg, tie_prototypes=((0, 1),), templates=templates, vocab=vocab)
    return TwinCorpus(
        corpus=corpus,
        twin_labels=(0, 1),
        twin_positions={0: canonical_a.index(0), 1: canonical_b.index(1)},
    )


# --- file formats -----------------------------------------------------------


def annotation_payload(corpus: Corpus) -> dict:
    videos = []
    for v in corpus.videos:
        steps = [
            {
                "label_id": c.truth,
                "start": float(i),
                "end": float(i) + 1.0,
                "asr": c.asr,
            }
            for i, c in enumerate(v.clips)
        ]
        videos.append(
            {
                "video_id": v.video_id,
                "task_id": v.task_id,
                "task_name": corpus.task_names.get(v.task_id, f"task-{v.task_id:03d}"),
                "steps": steps,
            }
        )
    return {"videos": videos}


def feature_sidecar_bytes(videos: list[VideoRecord]) -> bytes:
    if videos:
        d_in = videos[0].clips[0].feature.shape[0]
    else:
        d_in = 0
    clip_count = sum(v.K for v in videos)
    out = [FEATURE_MAGIC, struct.pack("<IIQ", FEATURE_VERSION, d_in, clip_count)]
    for v in videos:
        h = video_hash_u64(v.video_id)
        for i, c in enumerate(v.clips):
            out.append(struct.pack("<QI", h, i))
            out.append(c.feature.astype("<f4").tobytes())
    return b"".join(out)


def read_feature_sidecar(path) -> tuple[int, dict[tuple[int, int], np.ndarray]]:
    """Returns (d_in, {(video_hash, clip_index): float64 feature}). A file
    that does not match the format, holds one clip twice or holds a NaN or
    infinite feature value raises ParseError naming the path and byte offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = FEATURE_HEADER
    if len(data) < header:
        raise ParseError(f"{path}: file ends inside the header at byte {len(data)}")
    if data[:4] != FEATURE_MAGIC:
        raise ParseError(f"{path}: bad magic {data[:4]!r} at byte 0")
    version, d_in, clip_count = struct.unpack_from("<IIQ", data, 4)
    if version != FEATURE_VERSION:
        raise ParseError(f"{path}: unsupported version {version} at byte 4")
    record = 12 + 4 * d_in
    end = header + record * clip_count
    if len(data) < end:
        raise ParseError(
            f"{path}: file ends inside record {(len(data) - header) // record} at byte {len(data)}"
        )
    if len(data) > end:
        raise ParseError(f"{path}: {len(data) - end} trailing bytes at byte {end}")
    table = {}
    for at in range(header, end, record):
        key = struct.unpack_from("<QI", data, at)
        if key in table:
            raise ParseError(
                f"{path}: duplicate record for clip {key[1]} of video hash {key[0]:#x} at byte {at}"
            )
        # Test the exponent bits as integers so that a NaN raises no
        # floating-point error under np.errstate(invalid="raise").
        bits = np.frombuffer(data, dtype="<u4", count=d_in, offset=at + 12)
        bad = np.flatnonzero((bits & 0x7F800000) == 0x7F800000)
        if bad.size:
            raise ParseError(
                f"{path}: non-finite feature value in clip {key[1]} of video hash {key[0]:#x}"
                f" at byte {at + 12 + 4 * int(bad[0])}"
            )
        table[key] = bits.view("<f4").astype(np.float64)
    return d_in, table


def _missing_record(path, d_in: int, table, n: int, where: str, key) -> ParseError:
    """The error for annotated clip `n` (counting from the file's first
    clip) that has no sidecar record: it names the record that the writer
    puts in that clip's place."""
    what = f"{path}: no record for {where} (clip {key[1]} of video hash {key[0]:#x});"
    keys = list(table)
    if n >= len(keys):
        at = FEATURE_HEADER + len(keys) * (12 + 4 * d_in)
        return ParseError(f"{what} the file ends after {len(keys)} records at byte {at}")
    at = FEATURE_HEADER + n * (12 + 4 * d_in)
    return ParseError(
        f"{what} record {n} holds clip {keys[n][1]} of video hash {keys[n][0]:#x} at byte {at}"
    )


def save_corpus(corpus: Corpus, out_dir, extra: dict | None = None) -> dict:
    """Write vocab.json, annotations.json, features.stpf, manifest.json."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus.vocab.to_json_file(out / "vocab.json")
    with open(out / "annotations.json", "w", encoding="utf-8") as fh:
        json.dump(annotation_payload(corpus), fh, indent=2)
        fh.write("\n")
    with open(out / "features.stpf", "wb") as fh:
        fh.write(feature_sidecar_bytes(corpus.videos))
    manifest = {
        "config": corpus.cfg.to_dict() if corpus.cfg else None,
        "seed": corpus.cfg.seed if corpus.cfg else None,
        "num_videos": len(corpus.videos),
        "digest": corpus.digest(),
        **(extra or {}),
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def load_annotations(
    path,
    vocab: StepVocabulary,
    embedder: TextEmbedder,
    k: int,
    features_path=None,
    feature_dim: int | None = None,
) -> tuple[StepVocabulary, list[VideoRecord], dict[int, str]]:
    """Parse an annotation file against a vocabulary.

    Clip features come from the sidecar when given, otherwise they are
    synthesized as the exact label prototypes. Weak label distributions are
    recomputed from the stored narration.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or not isinstance(payload.get("videos"), list):
        raise ParseError(f"{path}: top-level object must contain a 'videos' list")

    feature_table = None
    d_in = None
    if features_path is not None:
        d_in, feature_table = read_feature_sidecar(features_path)
    prototypes = None

    videos = []
    task_names: dict[int, str] = {}
    clips_before = 0
    for vi, rec in enumerate(payload["videos"]):
        where = f"{path}: videos[{vi}]"
        video_id, task_id, task_name, steps = typed_fields(
            rec, where, video_id=str, task_id=int, task_name=str, steps=list
        )
        if len(steps) < 2:
            raise InvalidAnnotation(f"{where}: needs >= 2 steps")
        task_names[task_id] = task_name
        clips = []
        prev_end = None
        vhash = video_hash_u64(video_id)
        for si, step in enumerate(steps):
            swhere = f"{where}.steps[{si}]"
            label, start, end, asr = typed_fields(
                step, swhere, label_id=int, start=float, end=float, asr=str
            )
            if not 0 <= label < len(vocab):
                raise VocabularyMismatch(f"{swhere}: unknown label_id {label}")
            if end <= start:
                raise InvalidAnnotation(f"{swhere}: end {end} <= start {start}")
            if prev_end is not None and start < prev_end:
                raise InvalidAnnotation(
                    f"{swhere}: start {start} overlaps previous end {prev_end}"
                )
            prev_end = end
            if feature_table is not None:
                feature = feature_table.get((vhash, si))
                if feature is None:
                    raise _missing_record(
                        features_path, d_in, feature_table, clips_before + si, swhere, (vhash, si)
                    )
            else:
                if prototypes is None:
                    prototypes = label_prototypes(vocab, feature_dim or vocab.dim)
                feature = quantize_f32(prototypes[label])
            weak = weak_label_distribution(asr, vocab, embedder, k)
            clips.append(Clip(feature=feature, asr=asr, weak=weak, truth=label))
        videos.append(VideoRecord(video_id=video_id, task_id=task_id, clips=clips))
        clips_before += len(clips)
    return vocab, videos, task_names


def load_corpus(corpus_dir) -> Corpus:
    """Load a directory written by save_corpus."""
    from pathlib import Path

    d = Path(corpus_dir)
    path = d / "manifest.json"
    manifest = read_json(path)
    if not isinstance(manifest, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    try:
        cfg = from_json(CorpusConfig, manifest.get("config"), "config")
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    embedder = default_embedder(cfg)
    vocab = StepVocabulary.from_json_file(d / "vocab.json", embedder)
    features = d / "features.stpf"
    vocab, videos, task_names = load_annotations(
        d / "annotations.json",
        vocab,
        embedder,
        cfg.weak_topk,
        features_path=features if features.exists() else None,
        feature_dim=cfg.feature_dim,
    )
    return Corpus(vocab=vocab, videos=videos, task_names=task_names, cfg=cfg)


# --- splits -----------------------------------------------------------------


def _allocate(n: int, ratios: tuple[float, float, float]) -> list[int]:
    raw = [n * r for r in ratios]
    base = [int(np.floor(x)) for x in raw]
    remainder = n - sum(base)
    order = sorted(range(3), key=lambda i: raw[i] - base[i], reverse=True)
    for i in order[:remainder]:
        base[i] += 1
    return base


def split_corpus(
    videos: list[VideoRecord],
    ratios: tuple[float, float, float],
    seed: int,
) -> tuple[list[VideoRecord], list[VideoRecord], list[VideoRecord]]:
    """Task-stratified train/val/test partition, deterministic in seed.

    Tasks with fewer than 3 videos are pooled and split unstratified (with a
    warning) since per-task stratification is meaningless there. Individual
    ratios may be zero (that split comes back empty).
    """
    if any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise InvalidInput(f"ratios must be non-negative and sum to 1, got {ratios}")
    by_task: dict[int, list[VideoRecord]] = {}
    for v in videos:
        by_task.setdefault(v.task_id, []).append(v)
    splits: tuple[list, list, list] = ([], [], [])
    pooled: list[VideoRecord] = []
    for task_id in sorted(by_task):
        group = by_task[task_id]
        if len(group) < 3:
            pooled.extend(group)
            continue
        rng = np.random.default_rng([seed, 41, task_id])
        order = rng.permutation(len(group))
        counts = _allocate(len(group), ratios)
        cursor = 0
        for s, count in enumerate(counts):
            for j in order[cursor : cursor + count]:
                splits[s].append(group[j])
            cursor += count
    if pooled:
        logger.warning(
            "split_corpus: %d videos from tasks with < 3 videos assigned unstratified",
            len(pooled),
        )
        rng = np.random.default_rng([seed, 43])
        order = rng.permutation(len(pooled))
        counts = _allocate(len(pooled), ratios)
        cursor = 0
        for s, count in enumerate(counts):
            for j in order[cursor : cursor + count]:
                splits[s].append(pooled[j])
            cursor += count
    return splits
