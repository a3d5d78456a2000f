"""Synthesis of the six downstream benchmark datasets from a corpus.

Mistake-step instances replace one clip with a donor clip from another video
(donor label must differ from the replaced one). Mistake-ordering instances
either keep a video intact or permute it until the label sequence differs
from the original and from every valid ordering of same-task videos in the
corpus. Forecasting and classification instances slice videos directly.

Instances reference corpus clips by (video_id, clip_index), which is also
the JSON Lines serialization: features are resolved against the corpus.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, VideoRecord
from .errors import InvalidInput, ParseError, SynthesisError

logger = logging.getLogger(__name__)

KINDS = (
    "mistake_step",
    "mistake_order",
    "short_term",
    "long_term",
    "proc_rec",
    "step_cls",
)
LONG_TERM_SLOTS = 5
MISTAKE_ORDER_REDRAWS = 100


def derive_seed(set_seed: int, video_id: str, index: int) -> int:
    """Stable per-instance seed so synthesis can run in any order."""
    digest = hashlib.sha256(f"{set_seed}|{video_id}|{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class BenchmarkInstance:
    kind: str
    clips: np.ndarray  # (K, D_in)
    target: object  # int | bool | tuple of LONG_TERM_SLOTS entries (int | None)
    video_id: str
    task_id: int
    clip_refs: list[tuple[str, int]]
    labels: list[int]
    seed: int
    task_name_embedding: np.ndarray | None = None

    @property
    def K(self) -> int:
        return self.clips.shape[0]


@dataclass
class BenchmarkSet:
    kind: str
    instances: list[BenchmarkInstance]
    source_split: str
    seed: int
    digest: str = ""

    def __post_init__(self):
        if not self.digest:
            self.digest = _set_digest(self.instances)

    def __len__(self) -> int:
        return len(self.instances)


def _set_digest(instances) -> str:
    """Content-only digest (the per-instance seeds are part of the content),
    so a set written to JSON Lines and read back keeps its digest."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(_encode_instance(inst).encode("utf-8"))
    return h.hexdigest()


def _resolve_clips(corpus: Corpus, refs) -> tuple[np.ndarray, list[int]]:
    feats = []
    labels = []
    for vid, idx in refs:
        clip = corpus.video(vid).clips[idx]
        feats.append(clip.feature)
        labels.append(clip.truth)
    return np.stack(feats), labels


def make_mistake_step(
    video: VideoRecord,
    corpus: Corpus,
    seed: int,
    *,
    same_task_donor: bool = False,
    donor_pool: list[tuple[str, int, int]] | None = None,
) -> BenchmarkInstance:
    """Replace one uniformly chosen clip with a donor clip from another video
    whose label differs; target is the replaced position."""
    rng = np.random.default_rng(seed)
    j = int(rng.integers(video.K))
    replaced = video.clips[j].truth
    if donor_pool is None:
        donor_pool = donor_candidates(corpus)
    eligible = [
        (vid, idx, label)
        for vid, idx, label in donor_pool
        if vid != video.video_id
        and label != replaced
        and (not same_task_donor or corpus.video(vid).task_id == video.task_id)
    ]
    if not eligible:
        raise SynthesisError(
            f"no donor clip with label != {replaced} for video {video.video_id}"
        )
    donor_vid, donor_idx, donor_label = eligible[int(rng.integers(len(eligible)))]
    refs = [(video.video_id, i) for i in range(video.K)]
    refs[j] = (donor_vid, donor_idx)
    clips, labels = _resolve_clips(corpus, refs)
    return BenchmarkInstance(
        kind="mistake_step", clips=clips, target=j, video_id=video.video_id,
        task_id=video.task_id, clip_refs=refs, labels=labels, seed=seed,
    )


def donor_candidates(corpus: Corpus) -> list[tuple[str, int, int]]:
    """Flat (video_id, clip_index, label) list over all corpus clips, in
    corpus order; callers filter per instance."""
    return [
        (v.video_id, i, c.truth)
        for v in corpus.videos
        for i, c in enumerate(v.clips)
    ]


def make_mistake_order(
    video: VideoRecord,
    corpus: Corpus,
    seed: int,
    positive_probability: float = 0.5,
    *,
    force_permuted: bool | None = None,
) -> BenchmarkInstance:
    """Emit the video unmodified with probability positive_probability,
    otherwise permute it so the label sequence matches neither the original
    nor any same-task video's ordering. Target is the permuted flag."""
    if video.K < 2:
        raise InvalidInput("mistake ordering needs >= 2 clips")
    rng = np.random.default_rng(seed)
    if force_permuted is None:
        permuted = not (rng.random() < positive_probability)
    else:
        permuted = force_permuted
    refs = [(video.video_id, i) for i in range(video.K)]
    if permuted:
        original = tuple(video.truths())
        valid_orderings = {
            tuple(v.truths()) for v in corpus.videos if v.task_id == video.task_id
        }
        for _ in range(MISTAKE_ORDER_REDRAWS):
            pi = rng.permutation(video.K)
            shuffled = tuple(video.clips[p].truth for p in pi)
            if shuffled != original and shuffled not in valid_orderings:
                refs = [(video.video_id, int(p)) for p in pi]
                break
        else:
            raise SynthesisError(
                f"could not find an invalid ordering for video {video.video_id} "
                f"in {MISTAKE_ORDER_REDRAWS} redraws"
            )
    clips, labels = _resolve_clips(corpus, refs)
    return BenchmarkInstance(
        kind="mistake_order", clips=clips, target=bool(permuted),
        video_id=video.video_id, task_id=video.task_id, clip_refs=refs,
        labels=labels, seed=seed,
    )


def make_short_term(video: VideoRecord, n: int, seed: int) -> BenchmarkInstance:
    """First n clips as context; target is the label of clip n."""
    if not 1 <= n <= video.K - 1:
        raise InvalidInput(f"n must lie in [1, {video.K - 1}], got {n}")
    refs = [(video.video_id, i) for i in range(n)]
    clips = np.stack([video.clips[i].feature for i in range(n)])
    return BenchmarkInstance(
        kind="short_term", clips=clips, target=video.clips[n].truth,
        video_id=video.video_id, task_id=video.task_id, clip_refs=refs,
        labels=[video.clips[i].truth for i in range(n)], seed=seed,
    )


def make_long_term(video: VideoRecord, i: int, seed: int) -> BenchmarkInstance:
    """Single clip i; targets are the next LONG_TERM_SLOTS labels, padded
    with None (NULL) past the end of the video."""
    if not 0 <= i <= video.K - 2:
        raise InvalidInput(f"i must lie in [0, {video.K - 2}], got {i}")
    future = [c.truth for c in video.clips[i + 1 : i + 1 + LONG_TERM_SLOTS]]
    slots = tuple(future + [None] * (LONG_TERM_SLOTS - len(future)))
    return BenchmarkInstance(
        kind="long_term", clips=video.clips[i].feature[None, :], target=slots,
        video_id=video.video_id, task_id=video.task_id,
        clip_refs=[(video.video_id, i)], labels=[video.clips[i].truth], seed=seed,
    )


def make_proc_rec(video: VideoRecord, seed: int = 0) -> BenchmarkInstance:
    """All clips; target is the task id."""
    refs = [(video.video_id, i) for i in range(video.K)]
    return BenchmarkInstance(
        kind="proc_rec", clips=video.features(), target=video.task_id,
        video_id=video.video_id, task_id=video.task_id, clip_refs=refs,
        labels=video.truths(), seed=seed,
    )


def make_step_cls(video: VideoRecord, i: int, seed: int = 0) -> BenchmarkInstance:
    """Single clip, no context; target is its own label."""
    if not 0 <= i < video.K:
        raise InvalidInput(f"i must lie in [0, {video.K}), got {i}")
    return BenchmarkInstance(
        kind="step_cls", clips=video.clips[i].feature[None, :],
        target=video.clips[i].truth, video_id=video.video_id,
        task_id=video.task_id, clip_refs=[(video.video_id, i)],
        labels=[video.clips[i].truth], seed=seed,
    )


def build_benchmark_set(
    kind: str,
    videos: list[VideoRecord],
    corpus: Corpus,
    seed: int,
    source_split: str = "all",
    *,
    instances_per_video: int = 1,
    same_task_donor: bool = False,
) -> BenchmarkSet:
    """Synthesize a full dataset of one kind.

    Mistake-order sets are balanced by construction: exactly half the
    (video, repeat) slots are permuted, chosen by a seeded shuffle, so the
    positive fraction is 50% up to integer rounding at any set size.
    Forecasting and step classification enumerate every valid offset.
    Videos that cannot be synthesized (no donor / no invalid ordering) are
    skipped with a warning.
    """
    if kind not in KINDS:
        raise InvalidInput(f"unknown benchmark kind {kind!r}")
    instances: list[BenchmarkInstance] = []
    skipped = 0

    if kind == "mistake_step":
        pool = donor_candidates(corpus)
        for video in videos:
            for r in range(instances_per_video):
                s = derive_seed(seed, video.video_id, r)
                try:
                    instances.append(
                        make_mistake_step(
                            video, corpus, s,
                            same_task_donor=same_task_donor, donor_pool=pool,
                        )
                    )
                except SynthesisError:
                    skipped += 1
    elif kind == "mistake_order":
        slots = [(video, r) for video in videos for r in range(instances_per_video)]
        rng = np.random.default_rng([seed, 53])
        order = rng.permutation(len(slots))
        permute_flags = [False] * len(slots)
        for rank, slot_idx in enumerate(order):
            permute_flags[slot_idx] = rank < len(slots) // 2
        for (video, r), flag in zip(slots, permute_flags):
            s = derive_seed(seed, video.video_id, r)
            try:
                instances.append(
                    make_mistake_order(video, corpus, s, force_permuted=flag)
                )
            except SynthesisError:
                skipped += 1
    elif kind == "short_term":
        for video in videos:
            for n in range(1, video.K):
                instances.append(
                    make_short_term(video, n, derive_seed(seed, video.video_id, n))
                )
    elif kind == "long_term":
        for video in videos:
            for i in range(video.K - 1):
                instances.append(
                    make_long_term(video, i, derive_seed(seed, video.video_id, i))
                )
    elif kind == "proc_rec":
        for video in videos:
            instances.append(make_proc_rec(video, derive_seed(seed, video.video_id, 0)))
    else:
        for video in videos:
            for i in range(video.K):
                instances.append(
                    make_step_cls(video, i, derive_seed(seed, video.video_id, i))
                )

    if skipped:
        logger.warning("build_benchmark_set(%s): skipped %d unsynthesizable videos", kind, skipped)
    return BenchmarkSet(kind=kind, instances=instances, source_split=source_split, seed=seed)


# --- serialization ----------------------------------------------------------


def _encode_instance(inst: BenchmarkInstance) -> str:
    if inst.kind == "long_term":
        target = list(inst.target)
    elif inst.kind == "mistake_order":
        target = bool(inst.target)
    else:
        target = int(inst.target)
    record = {
        "kind": inst.kind,
        "video_id": inst.video_id,
        "clip_refs": [[vid, idx] for vid, idx in inst.clip_refs],
        "target": target,
        "seed": inst.seed,
    }
    return json.dumps(record, sort_keys=True)


def write_benchmark_jsonl(bset: BenchmarkSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in bset.instances:
            fh.write(_encode_instance(inst))
            fh.write("\n")


def _record_problem(corpus: Corpus, kind: str, video_id, refs, target) -> str | None:
    """Why a parsed record does not fit the corpus, or None: the record's
    video and every clip ref must name a corpus video (every video has a
    clip 0), refs a clip inside it, and targets must lie in their kind's
    range (labels, task ids, or positions among the clip refs). A
    mistake_order target is a JSON boolean; a long_term target has exactly
    LONG_TERM_SLOTS slots."""
    for vid, idx in [(video_id, 0), *refs]:
        try:
            k = corpus.video(vid).K
        except (KeyError, TypeError):
            return f"unknown video {vid!r}"
        if not 0 <= idx < k:
            return f"clip {idx} of video {vid!r} outside [0, {k})"
    if kind == "mistake_order":
        ok = isinstance(target, bool)
        return None if ok else f"mistake_order target {target!r} is not true or false"
    if kind == "long_term" and len(target) != LONG_TERM_SLOTS:
        return f"long_term target has {len(target)} slots, not {LONG_TERM_SLOTS}"
    if kind == "mistake_step":
        what, allowed = "a clip position", range(len(refs))
    elif kind == "proc_rec":
        what, allowed = "a corpus task id", corpus.task_names
    else:
        what, allowed = "a corpus label", range(len(corpus.vocab))
    values = [t for t in target if t is not None] if kind == "long_term" else [target]
    bad = [t for t in values if t not in allowed]
    return f"{kind} target {bad[0]} is not {what}" if bad else None


def read_benchmark_jsonl(path, corpus: Corpus, source_split: str = "file") -> BenchmarkSet:
    """Load instances, resolving clip features and labels via the corpus."""
    instances = []
    seed = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                kind = rec["kind"]
                video_id = rec["video_id"]
                refs = [(str(v), int(i)) for v, i in rec["clip_refs"]]
                raw_target = rec["target"]
                seed = int(rec["seed"])
                if kind == "long_term":
                    target = tuple(None if t is None else int(t) for t in raw_target)
                elif kind == "mistake_order":
                    target = raw_target
                else:
                    target = int(raw_target)
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if kind not in KINDS:
                raise ParseError(f"{path}:{lineno}: unknown kind {kind!r}")
            problem = _record_problem(corpus, kind, video_id, refs, target)
            if problem:
                raise ParseError(f"{path}:{lineno}: {problem}")
            clips, labels = _resolve_clips(corpus, refs)
            instances.append(
                BenchmarkInstance(
                    kind=kind, clips=clips, target=target, video_id=video_id,
                    task_id=corpus.video(video_id).task_id, clip_refs=refs,
                    labels=labels, seed=seed,
                )
            )
    if not instances:
        raise InvalidInput(f"{path}: empty dataset")
    kinds = {i.kind for i in instances}
    if len(kinds) != 1:
        raise ParseError(f"{path}: mixed instance kinds {sorted(kinds)}")
    return BenchmarkSet(
        kind=instances[0].kind, instances=instances,
        source_split=source_split, seed=seed,
    )
