"""qasum: question-answering-first summarization prompting and evaluation.

Rank candidate questions by how much of their answers' wording lands in
reference summaries, build answer-the-questions-then-summarize prompts
with in-context examples, call a pluggable completion backend, and score
outputs with ROUGE — as a library or via the ``qasum`` CLI.
"""

from .corpus import (
    Corpus,
    CorpusSplit,
    TaskInstance,
    load_corpus,
    sample_icl_examples,
    split_corpus,
)
from .harness import ExperimentConfig, RunManifest, run_compare, run_eval, run_rank, run_report
from .lm import CompletionClient, Generation, LmConfig, compute_max_tokens
from .metrics import (Reference, RougeScore, ScoreRow, aggregate, overlap_precision, rouge_scores,
                      tokenize)
from .prompting import (
    IclExample,
    ParsedOutput,
    PromptBundle,
    build_qa_prompt,
    build_single_qa,
    parse_output,
)
from .questions import (
    QuestionSpec,
    RankingTable,
    builtin_bank,
    global_ranking,
    load_ranking,
    rank_questions,
    save_ranking,
    top_k,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusSplit",
    "CompletionClient",
    "ExperimentConfig",
    "Generation",
    "IclExample",
    "LmConfig",
    "ParsedOutput",
    "PromptBundle",
    "QuestionSpec",
    "RankingTable",
    "Reference",
    "RougeScore",
    "RunManifest",
    "ScoreRow",
    "TaskInstance",
    "aggregate",
    "build_qa_prompt",
    "build_single_qa",
    "builtin_bank",
    "compute_max_tokens",
    "global_ranking",
    "load_corpus",
    "load_ranking",
    "overlap_precision",
    "parse_output",
    "rank_questions",
    "rouge_scores",
    "run_compare",
    "run_eval",
    "run_rank",
    "run_report",
    "sample_icl_examples",
    "save_ranking",
    "split_corpus",
    "tokenize",
    "top_k",
]
