"""Text embeddings, similarity, and weak label distributions.

Clips carry noisy narration sentences; each step in the vocabulary carries a
text description. A clip's weak label distribution is the softmax over
dot-product similarities between the sentence embedding and all step
description embeddings, truncated to its top-k entries and renormalized.

The synthetic embedder stands in for an external sentence encoder: it hashes
the normalized text into a PRNG seed and draws a unit-norm Gaussian vector,
so identical texts always map to identical vectors and distinct texts are
(near-)uncorrelated.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InvalidDistribution,
    InvalidInput,
    MissingEmbedding,
    ParseError,
)
from .schema import read_json, typed_fields

_WHITESPACE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Lowercase and collapse internal whitespace."""
    return _WHITESPACE.sub(" ", text.strip()).lower()


@dataclass
class TextEmbedder:
    """Deterministic sentence embedder.

    mode "synthetic": hash-seeded Gaussian draws, unit-normalized.
    mode "table": vectors loaded from a TSV file, unit-normalized on load.
    """

    dim: int
    mode: str = "synthetic"
    seed: int = 0
    table: dict[str, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput(f"embedding dim must be >= 1, got {self.dim}")
        if self.mode not in ("synthetic", "table"):
            raise InvalidInput(f"unknown embedder mode {self.mode!r}")
        if self.mode == "table" and self.table is None:
            raise InvalidInput("table mode requires a loaded table")

    @classmethod
    def from_table_file(cls, path) -> "TextEmbedder":
        """Load a `<text>\\t<float> <float> ...` table; keys are normalized."""
        table: dict[str, np.ndarray] = {}
        dim = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if "\t" not in line:
                    raise ParseError(f"{path}:{lineno}: missing tab separator")
                text, _, payload = line.partition("\t")
                try:
                    vec = np.array([float(tok) for tok in payload.split()], dtype=np.float64)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad float ({exc})") from exc
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise ParseError(
                        f"{path}:{lineno}: expected {dim} floats, got {vec.shape[0]}"
                    )
                norm = float(np.linalg.norm(vec))
                if norm == 0.0:
                    raise ParseError(f"{path}:{lineno}: zero vector cannot be normalized")
                table[normalize_text(text)] = vec / norm
        if dim is None:
            raise ParseError(f"{path}: empty embedding table")
        return cls(dim=int(dim), mode="table", table=table)


def embed_text(embedder: TextEmbedder, text: str) -> np.ndarray:
    """Embed one sentence as a unit-norm float64 vector of embedder.dim."""
    key = normalize_text(text)
    if not key:
        raise InvalidInput("cannot embed empty text")
    if embedder.mode == "table":
        vec = embedder.table.get(key)
        if vec is None:
            raise MissingEmbedding(f"no table entry for {key!r}")
        return vec.copy()
    digest = hashlib.sha256(f"{embedder.seed}\x1f{key}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:16], "little"))
    vec = rng.standard_normal(embedder.dim)
    return vec / np.linalg.norm(vec)


@dataclass
class StepVocabulary:
    """The finite step-label set: ids 0..S-1, each with title, description,
    and the embedding of its description."""

    titles: list[str]
    descriptions: list[str]
    embeddings: np.ndarray  # (S, dim), unit-norm rows
    dim: int

    def __post_init__(self):
        if len(self.titles) != len(self.descriptions):
            raise InvalidInput("titles and descriptions must align")
        if len(set(self.titles)) != len(self.titles):
            raise InvalidInput("step titles must be unique")
        if self.embeddings.shape != (len(self.titles), self.dim):
            raise DimensionError(
                f"embeddings shape {self.embeddings.shape} != ({len(self.titles)}, {self.dim})"
            )

    def __len__(self) -> int:
        return len(self.titles)

    @classmethod
    def build(cls, titles, descriptions, embedder: TextEmbedder) -> "StepVocabulary":
        emb = np.stack([embed_text(embedder, d) for d in descriptions])
        return cls(list(titles), list(descriptions), emb, embedder.dim)

    @classmethod
    def from_json_file(cls, path, embedder: TextEmbedder) -> "StepVocabulary":
        """Load a non-empty JSON array of {id, title, description}, each of its
        exact JSON type (int, string, string); ids must be 0..S-1, each once,
        titles distinct and descriptions embeddable. An entry that breaks a
        rule raises an error naming the path and the entry."""
        records = read_json(path)
        if not isinstance(records, list) or not records:
            raise ParseError(f"{path}: expected a non-empty JSON array of step objects")
        by_id = {}
        seen_titles = set()
        for n, rec in enumerate(records):
            where = f"{path}: entry {n}"
            step_id, title, description = typed_fields(
                rec, where, id=int, title=str, description=str
            )
            if not 0 <= step_id < len(records):
                raise ParseError(f"{where}: id {step_id} outside [0, {len(records)})")
            if step_id in by_id:
                raise ParseError(f"{where}: duplicate id {step_id}")
            if title in seen_titles:
                raise ParseError(f"{where}: duplicate title {title!r}")
            seen_titles.add(title)
            try:
                by_id[step_id] = (title, description, embed_text(embedder, description))
            except (InvalidInput, MissingEmbedding) as exc:  # blank text, or not in the table
                raise type(exc)(f"{where}: {exc}") from exc
        titles, descriptions, embeddings = zip(*(by_id[i] for i in range(len(records))))
        return cls(list(titles), list(descriptions), np.stack(embeddings), embedder.dim)

    def to_json_file(self, path):
        records = [
            {"id": i, "title": t, "description": d}
            for i, (t, d) in enumerate(zip(self.titles, self.descriptions))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")


@dataclass(frozen=True)
class LabelDistribution:
    """Sparse categorical distribution over step labels.

    Entries are (label_id, probability), strictly positive, sorted by
    descending probability (ties: lower id first), summing to 1.
    """

    entries: tuple[tuple[int, float], ...]
    k: int

    def __post_init__(self):
        if not self.entries:
            raise InvalidDistribution("empty label distribution")
        if len(self.entries) > self.k:
            raise InvalidDistribution(f"more than k={self.k} entries")
        total = 0.0
        prev = None
        for label, p in self.entries:
            if p <= 0.0:
                raise InvalidDistribution(f"non-positive probability {p} for label {label}")
            if prev is not None and p > prev + 1e-12:
                raise InvalidDistribution("entries not sorted by descending probability")
            prev = p
            total += p
        if abs(total - 1.0) > 1e-9:
            raise InvalidDistribution(f"probabilities sum to {total}, expected 1")

    def labels(self) -> list[int]:
        return [label for label, _ in self.entries]

    def as_dense(self, size: int) -> np.ndarray:
        dense = np.zeros(size, dtype=np.float64)
        for label, p in self.entries:
            dense[label] = p
        return dense


def stable_softmax(scores: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax in double precision."""
    scores = np.asarray(scores, dtype=np.float64)
    shifted = scores - scores.max()
    e = np.exp(shifted)
    return e / e.sum()


def truncate_topk(dense: np.ndarray, k: int) -> LabelDistribution:
    """Keep the k most probable labels (ties to lower id), renormalize.

    Zero-probability labels never survive truncation, so the result can hold
    fewer than k entries.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if dense.ndim != 1 or dense.size == 0:
        raise InvalidDistribution("expected a non-empty 1-d probability vector")
    if np.any(dense < 0) or abs(float(dense.sum()) - 1.0) > 1e-6:
        raise InvalidDistribution("input is not a probability distribution")
    # Stable sort on (-p, id): equal probabilities keep ascending-id order.
    order = np.lexsort((np.arange(dense.size), -dense))
    kept = [(int(i), float(dense[i])) for i in order[:k] if dense[i] > 0.0]
    if not kept:
        raise InvalidDistribution("no positive-probability labels to keep")
    mass = sum(p for _, p in kept)
    entries = tuple((label, p / mass) for label, p in kept)
    return LabelDistribution(entries=entries, k=k)


def weak_label_distribution(
    asr_sentence: str,
    vocab: StepVocabulary,
    embedder: TextEmbedder,
    k: int,
) -> LabelDistribution:
    """Softmax over similarities between the sentence and every step
    description, truncated to the top k entries."""
    if len(vocab) == 0:
        raise InvalidInput("empty vocabulary")
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    sentence = embed_text(embedder, asr_sentence)
    scores = vocab.embeddings @ sentence
    return truncate_topk(stable_softmax(scores), k)


def best_label(dist: LabelDistribution) -> int:
    """Most probable label; ties already resolved to the lowest id."""
    return dist.entries[0][0]
