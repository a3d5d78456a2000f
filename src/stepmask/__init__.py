"""Masked step modeling for procedural task sequences.

A small, fully deterministic stack for studying step representations:
weak label distributions from text similarity, a float64 transformer with
hand-written backpropagation, synthetic procedural corpora, six benchmark
task kinds (step classification, procedure recognition, short/long-term
forecasting, mistake step and mistake ordering detection), and a CLI that
chains the whole pipeline from one JSON config.
"""

from .weaklabel import (
    LabelDistribution,
    StepVocabulary,
    TextEmbedder,
    best_label,
    embed_text,
    truncate_topk,
    weak_label_distribution,
)
from .corpus import (
    Corpus,
    CorpusConfig,
    TaskTemplate,
    VideoRecord,
    ambiguous_twin_corpus,
    generate_corpus,
    generate_task_library,
    load_annotations,
    load_corpus,
    sample_video,
    save_corpus,
    split_corpus,
)
from .model import (
    ModelConfig,
    TransformerParams,
    checkpoint_digest,
    desk_preset,
    forward,
    init_params,
    load_checkpoint,
    full_preset,
    params_digest,
    save_checkpoint,
    softmax_logits,
)
from .training import (
    MaskSpec,
    MaskedBatch,
    OptimizerConfig,
    TrainReport,
    backward,
    distribution_matching_loss,
    grad_check,
    optimizer_step,
    pretrain,
    run_gradient_audit,
    sample_mask,
    step_classification_loss,
)
from .benchmarks import (
    BenchmarkInstance,
    BenchmarkSet,
    build_benchmark_set,
    make_long_term,
    make_mistake_order,
    make_mistake_step,
    make_proc_rec,
    make_short_term,
    make_step_cls,
    read_benchmark_jsonl,
    write_benchmark_jsonl,
)
from .downstream import (
    EvalReport,
    FinetuneConfig,
    embed_task_label,
    evaluate,
    finetune,
    predict,
)
from .config import RunConfig

__version__ = "0.1.0"
