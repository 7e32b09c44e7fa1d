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
from .lm import CompletionClient, LmConfig, compute_max_tokens
from .metrics import (Reference, RougeScore, ScoreRow, ScoreTable, aggregate, overlap_precision,
                      rouge_scores, tokenize)
from .prompting import (
    IclExample,
    ParsedOutput,
    PromptFrame,
    parse_output,
    qa_frame,
    single_qa_frame,
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
    "IclExample",
    "LmConfig",
    "ParsedOutput",
    "PromptFrame",
    "QuestionSpec",
    "RankingTable",
    "Reference",
    "RougeScore",
    "RunManifest",
    "ScoreRow",
    "ScoreTable",
    "TaskInstance",
    "aggregate",
    "builtin_bank",
    "compute_max_tokens",
    "global_ranking",
    "load_corpus",
    "load_ranking",
    "overlap_precision",
    "parse_output",
    "qa_frame",
    "rank_questions",
    "rouge_scores",
    "run_compare",
    "run_eval",
    "run_rank",
    "run_report",
    "sample_icl_examples",
    "save_ranking",
    "single_qa_frame",
    "split_corpus",
    "tokenize",
    "top_k",
]
