"""Synthesis, serialization and target checks of the six downstream benchmark
kinds, read from one table.

`KIND_SPECS` has one `KindSpec` per kind: its per-video instance generator
(None for a slot the video cannot fill, counted as the set's `skipped`), its
target's exact JSON type (`bool` for mistake_order, a list of LONG_TERM_SLOTS
slots of `int` or null for long_term, `int` otherwise) and the range a target
or non-null slot must lie in (clip positions, task ids or labels).

Mistake-step instances replace one clip with a donor clip from another video
whose label differs; each set indexes its donors once as arrays. Mistake-order
sets permute half their slots, each until the label sequence differs from
every ordering of a same-task video. Forecasting and classification instances
slice videos directly. Instances reference corpus clips by (video_id,
clip_index), which is also the JSON Lines serialization.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .corpus import Corpus, VideoRecord
from .errors import InvalidInput, ParseError, SynthesisError

logger = logging.getLogger(__name__)

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
    skipped: int = 0  # slots synthesis could not fill; not part of the digest

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


def _instance(kind, video, target, seed, refs, corpus=None) -> BenchmarkInstance:
    """`video`'s instance over clip refs resolved in `corpus`; without a
    corpus every ref is a clip of `video`."""
    if corpus is None:
        clips = [video.clips[i] for _, i in refs]
    else:
        clips = [corpus.video(vid).clips[i] for vid, i in refs]
    return BenchmarkInstance(
        kind=kind, clips=np.array([c.feature for c in clips]), target=target,
        video_id=video.video_id, task_id=video.task_id, clip_refs=refs,
        labels=[c.truth for c in clips], seed=seed,
    )


def _own(video: VideoRecord, positions) -> list[tuple[str, int]]:
    return [(video.video_id, int(i)) for i in positions]


@dataclass(frozen=True)
class DonorPool:
    """Every corpus clip in corpus order as parallel arrays: its video's
    index in `corpus.videos`, its clip index, label and task."""

    video: np.ndarray
    clip: np.ndarray
    label: np.ndarray
    task: np.ndarray
    position: dict[str, int]  # video_id -> index in corpus.videos


def donor_candidates(corpus: Corpus) -> DonorPool:
    """Index every corpus clip once; each instance filters the index with
    one boolean mask."""
    rows = [
        (vi, i, c.truth, v.task_id) for vi, v in enumerate(corpus.videos) for i, c in enumerate(v.clips)
    ]
    video, clip, label, task = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return DonorPool(video, clip, label, task, {v.video_id: vi for vi, v in enumerate(corpus.videos)})


def make_mistake_step(
    video: VideoRecord,
    corpus: Corpus,
    seed: int,
    *,
    same_task_donor: bool = False,
    donor_pool: DonorPool | None = None,
) -> BenchmarkInstance:
    """Replace one uniformly chosen clip with a donor clip from another video
    whose label differs (with same_task_donor, also of the video's task);
    target is the replaced position."""
    rng = np.random.default_rng(seed)
    j = int(rng.integers(video.K))
    replaced = video.clips[j].truth
    pool = donor_candidates(corpus) if donor_pool is None else donor_pool
    keep = (pool.video != pool.position.get(video.video_id, -1)) & (pool.label != replaced)
    if same_task_donor:
        keep &= pool.task == video.task_id
    eligible = np.flatnonzero(keep)
    if not eligible.size:
        raise SynthesisError(f"no donor clip with label != {replaced} for video {video.video_id}")
    pick = eligible[rng.integers(eligible.size)]
    refs = _own(video, range(video.K))
    refs[j] = (corpus.videos[pool.video[pick]].video_id, int(pool.clip[pick]))
    return _instance("mistake_step", video, j, seed, refs, corpus)


def make_mistake_order(
    video: VideoRecord, corpus: Corpus, seed: int, *, force_permuted: bool
) -> BenchmarkInstance:
    """The video unmodified, or with force_permuted its clips permuted so the
    label sequence matches neither the original nor any same-task video's
    ordering. Target is the permuted flag."""
    if video.K < 2:
        raise InvalidInput("mistake ordering needs >= 2 clips")
    rng = np.random.default_rng(seed)
    order = range(video.K)
    if force_permuted:
        original = tuple(video.truths())
        valid_orderings = corpus.task_orderings.get(video.task_id, ())
        for _ in range(MISTAKE_ORDER_REDRAWS):
            order = rng.permutation(video.K)
            shuffled = tuple(video.clips[p].truth for p in order)
            if shuffled != original and shuffled not in valid_orderings:
                break
        else:
            raise SynthesisError(
                f"could not find an invalid ordering for video {video.video_id} "
                f"in {MISTAKE_ORDER_REDRAWS} redraws"
            )
    return _instance("mistake_order", video, bool(force_permuted), seed, _own(video, order))


def make_short_term(video: VideoRecord, n: int, seed: int) -> BenchmarkInstance:
    """First n clips as context; target is the label of clip n."""
    if not 1 <= n <= video.K - 1:
        raise InvalidInput(f"n must lie in [1, {video.K - 1}], got {n}")
    return _instance("short_term", video, video.clips[n].truth, seed, _own(video, range(n)))


def make_long_term(video: VideoRecord, i: int, seed: int) -> BenchmarkInstance:
    """Single clip i; targets are the next LONG_TERM_SLOTS labels, padded
    with None (NULL) past the end of the video."""
    if not 0 <= i <= video.K - 2:
        raise InvalidInput(f"i must lie in [0, {video.K - 2}], got {i}")
    future = [c.truth for c in video.clips[i + 1 : i + 1 + LONG_TERM_SLOTS]]
    slots = tuple(future + [None] * (LONG_TERM_SLOTS - len(future)))
    return _instance("long_term", video, slots, seed, _own(video, [i]))


def make_proc_rec(video: VideoRecord, seed: int = 0) -> BenchmarkInstance:
    """All clips; target is the task id."""
    return _instance("proc_rec", video, video.task_id, seed, _own(video, range(video.K)))


def make_step_cls(video: VideoRecord, i: int, seed: int = 0) -> BenchmarkInstance:
    """Single clip, no context; target is its own label."""
    if not 0 <= i < video.K:
        raise InvalidInput(f"i must lie in [0, {video.K}), got {i}")
    return _instance("step_cls", video, video.clips[i].truth, seed, _own(video, [i]))


# --- the kind table -----------------------------------------------------------


@dataclass
class _SetIndex:
    """What one set's generators share; each index is built on first use."""

    corpus: Corpus
    seed: int
    videos: int
    per_video: int
    same_task_donor: bool

    def seed_of(self, video: VideoRecord, index: int) -> int:
        return derive_seed(self.seed, video.video_id, index)

    @cached_property
    def donors(self) -> DonorPool:
        return donor_candidates(self.corpus)

    @cached_property
    def permuted(self) -> np.ndarray:
        """Which (video, repeat) slots a mistake_order set permutes: half of
        them, rounded down, chosen by a seeded shuffle."""
        n = self.videos * self.per_video
        flags = np.zeros(n, dtype=bool)
        flags[np.random.default_rng([self.seed, 53]).permutation(n)[: n // 2]] = True
        return flags


def _unless_unsynthesizable(make, *args, **kwargs) -> BenchmarkInstance | None:
    try:
        return make(*args, **kwargs)
    except SynthesisError:
        return None


@dataclass(frozen=True)
class KindSpec:
    """One benchmark kind; see the module docstring."""

    instances: Callable  # (set index, position in the set, video) -> instances, None if unfilled
    target: type  # int or bool: the JSON type of the target or of each non-null slot
    allowed: Callable  # (corpus, clip refs) -> the values a target may take
    what: str  # the range in words, for error messages
    slots: int = 0  # 0 for a scalar target


def _labels(corpus: Corpus, refs) -> range:
    return range(len(corpus.vocab))


# The generators look the make_* functions up when they run, so a wrapper
# installed on the module (a tracer, say) sees every call.
KIND_SPECS: dict[str, KindSpec] = {
    "mistake_step": KindSpec(
        lambda ix, at, v: (_unless_unsynthesizable(
            make_mistake_step, v, ix.corpus, ix.seed_of(v, r),
            same_task_donor=ix.same_task_donor, donor_pool=ix.donors,
        ) for r in range(ix.per_video)),
        int, lambda corpus, refs: range(len(refs)), "a clip position",
    ),
    "mistake_order": KindSpec(
        lambda ix, at, v: (_unless_unsynthesizable(
            make_mistake_order, v, ix.corpus, ix.seed_of(v, r),
            force_permuted=bool(ix.permuted[at * ix.per_video + r]),
        ) for r in range(ix.per_video)),
        bool, lambda corpus, refs: (False, True), "true or false",
    ),
    "short_term": KindSpec(
        lambda ix, at, v: (make_short_term(v, n, ix.seed_of(v, n)) for n in range(1, v.K)),
        int, _labels, "a corpus label",
    ),
    "long_term": KindSpec(
        lambda ix, at, v: (make_long_term(v, i, ix.seed_of(v, i)) for i in range(v.K - 1)),
        int, _labels, "a corpus label", slots=LONG_TERM_SLOTS,
    ),
    "proc_rec": KindSpec(
        lambda ix, at, v: [make_proc_rec(v, ix.seed_of(v, 0))],
        int, lambda corpus, refs: corpus.task_names, "a corpus task id",
    ),
    "step_cls": KindSpec(
        lambda ix, at, v: (make_step_cls(v, i, ix.seed_of(v, i)) for i in range(v.K)),
        int, _labels, "a corpus label",
    ),
}
KINDS = tuple(KIND_SPECS)


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
    """Synthesize a full dataset of one kind, video by video.

    mistake_step and mistake_order make instances_per_video instances of each
    video. Mistake-order sets are balanced by construction: exactly half the
    (video, repeat) slots are permuted, so the positive fraction is 50% up to
    integer rounding at any set size. Forecasting and step classification
    enumerate every valid offset; proc_rec takes each video once. Slots that
    cannot be synthesized (no donor / no invalid ordering) are skipped with a
    warning and counted in the set's `skipped`.
    """
    if kind not in KINDS:
        raise InvalidInput(f"unknown benchmark kind {kind!r}")
    index = _SetIndex(corpus, seed, len(videos), instances_per_video, same_task_donor)
    made = [inst for at, v in enumerate(videos) for inst in KIND_SPECS[kind].instances(index, at, v)]
    instances = [inst for inst in made if inst is not None]
    skipped = len(made) - len(instances)
    if skipped:
        logger.warning("build_benchmark_set(%s): skipped %d unsynthesizable slots", kind, skipped)
    return BenchmarkSet(kind, instances, source_split, seed, skipped=skipped)


# --- serialization ----------------------------------------------------------


def _encode_instance(inst: BenchmarkInstance) -> str:
    spec = KIND_SPECS[inst.kind]
    record = {
        "kind": inst.kind,
        "video_id": inst.video_id,
        "clip_refs": [[vid, idx] for vid, idx in inst.clip_refs],
        "target": list(inst.target) if spec.slots else spec.target(inst.target),
        "seed": inst.seed,
    }
    return json.dumps(record, sort_keys=True)


def write_benchmark_jsonl(bset: BenchmarkSet, path):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in bset.instances:
            fh.write(_encode_instance(inst))
            fh.write("\n")


def _record_problem(corpus: Corpus, kind, video_id, refs, target, seed) -> str | None:
    """Why a parsed record does not fit its kind's table entry and the
    corpus, or None. Values must have their exact JSON types, so no float,
    string or bool passes as an int. The record's video and every clip ref
    must name a corpus video (every video has a clip 0), refs a clip inside
    it, and the target must lie in its kind's range."""
    spec = KIND_SPECS.get(kind) if type(kind) is str else None
    if spec is None:
        return f"unknown kind {kind!r}"
    if type(seed) is not int:
        return f"seed {seed!r} is not an integer"
    if type(refs) is not list or not refs:
        return f"clip_refs {refs!r} is not a non-empty list"
    for ref in [[video_id, 0], *refs]:
        if type(ref) is not list or len(ref) != 2 or type(ref[1]) is not int:
            return f"clip ref {ref!r} is not [video_id, clip_index]"
        vid, idx = ref
        try:
            k = corpus.video(vid).K
        except (KeyError, TypeError):
            return f"unknown video {vid!r}"
        if not 0 <= idx < k:
            return f"clip {idx} of video {vid!r} outside [0, {k})"
    values = [target]
    if spec.slots:
        if type(target) is not list:
            return f"{kind} target {target!r} is not iterable as {spec.slots} slots"
        if len(target) != spec.slots:
            return f"{kind} target has {len(target)} slots, not {spec.slots}"
        values = [t for t in target if t is not None]
    allowed = spec.allowed(corpus, refs)
    bad = [t for t in values if type(t) is not spec.target or t not in allowed]
    return f"{kind} target {bad[0]!r} is not {spec.what}" if bad else None


def read_benchmark_jsonl(path, corpus: Corpus, source_split: str = "file") -> BenchmarkSet:
    """Load instances, resolving clip features and labels via the corpus. A
    line that is not UTF-8 JSON, a record that `_record_problem` rejects, or
    one of another kind than the first record raises ParseError naming the
    path and line."""
    instances = []
    seed = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                kind, video_id, refs = rec["kind"], rec["video_id"], rec["clip_refs"]
                target, seed = rec["target"], rec["seed"]
            except (KeyError, TypeError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            problem = _record_problem(corpus, kind, video_id, refs, target, seed)
            if not problem and instances and kind != instances[0].kind:
                problem = f"kind {kind!r} differs from the first record's {instances[0].kind!r}"
            if problem:
                raise ParseError(f"{path}:{lineno}: {problem}")
            target = tuple(target) if type(target) is list else target
            refs = [corpus.clip_refs[vid][idx] for vid, idx in refs]
            instances.append(_instance(kind, corpus.video(video_id), target, seed, refs, corpus))
    if not instances:
        raise InvalidInput(f"{path}: empty dataset")
    return BenchmarkSet(instances[0].kind, instances, source_split, seed)
