"""Prompt rendering and completion parsing.

Four prompt kinds are rendered byte-exactly: a zero-shot summarization
instruction (vanilla), the same with completed example blocks prepended
(icl), a single-question answering prompt used by the ranking phase, and
the question-answer-then-summarize prompt (qa). Completions are parsed
back into per-question answers plus a summary, with graceful fallback
states so a batch run never aborts on one bad generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .lm import truncate_at_stop

if TYPE_CHECKING:
    from .questions import QuestionSpec

QA_INSTRUCTION = (
    "Given the following article, first answer the questions. Then, using the "
    "article and answers as key pointers, generate a summary of the article."
)
SINGLE_QA_INSTRUCTION = "Given the following article, answer the question."
VANILLA_INSTRUCTION = "Summarize the following article."

SUMMARY_MARKER = "Summary:"

PARSE_OK = "ok"
PARSE_FALLBACK = "fallback"
PARSE_FAILED = "failed"


class PromptError(Exception):
    pass


class AnswerCountMismatch(PromptError):
    def __init__(self, example_index: int, expected: int, got: int):
        super().__init__(
            f"ICL example {example_index} supplies {got} answer(s); prompt has {expected} question(s)"
        )
        self.example_index = example_index


@dataclass(frozen=True)
class PromptTemplates:
    """Instruction strings; override via the harness config to ablate."""

    qa_instruction: str = QA_INSTRUCTION
    single_qa_instruction: str = SINGLE_QA_INSTRUCTION
    vanilla_instruction: str = VANILLA_INSTRUCTION


DEFAULT_TEMPLATES = PromptTemplates()


@dataclass(frozen=True)
class IclExample:
    """A completed example block: article, reference summary, and (for qa
    prompts) one generated answer per prompt question."""

    article: str
    reference: str
    answers: tuple[str, ...] = ()


@dataclass(frozen=True)
class PromptBundle:
    kind: str  # vanilla | icl | qa
    text: str
    k: int
    question_keys: tuple[str, ...]
    answer_markers: tuple[str, ...]
    stop_sequences: tuple[str, ...]


@dataclass(frozen=True)
class ParsedOutput:
    answers: tuple[str, ...]
    summary: str
    parse_status: str


def render_output_block(answers: tuple[str, ...] | list[str], summary: str) -> str:
    """The completed answer/summary block shown in qa ICL examples:
    ``A: A1: {a1}. ... Ak: {ak}.`` then ``Summary: {summary}.``"""
    parts = ["A:"]
    for i, answer in enumerate(answers, start=1):
        parts.append(f"A{i}: {answer}.")
    return " ".join(parts) + f"\n{SUMMARY_MARKER} {summary}."


def build_vanilla(article: str, templates: PromptTemplates = DEFAULT_TEMPLATES) -> PromptBundle:
    text = f"{templates.vanilla_instruction}\n{article}\n{SUMMARY_MARKER}"
    return PromptBundle(
        kind="vanilla",
        text=text,
        k=0,
        question_keys=(),
        answer_markers=(),
        stop_sequences=(templates.vanilla_instruction,),
    )


def build_icl_prompt(
    article: str,
    icl_examples: list[IclExample],
    templates: PromptTemplates = DEFAULT_TEMPLATES,
) -> PromptBundle:
    blocks = [
        f"{templates.vanilla_instruction}\n{ex.article}\n{SUMMARY_MARKER} {ex.reference}."
        for ex in icl_examples
    ]
    blocks.append(f"{templates.vanilla_instruction}\n{article}\n{SUMMARY_MARKER}")
    return PromptBundle(
        kind="icl",
        text="\n\n".join(blocks),
        k=0,
        question_keys=(),
        answer_markers=(),
        stop_sequences=(templates.vanilla_instruction,),
    )


def _question_lines(questions: list[QuestionSpec]) -> str:
    return "\n".join(f"Q{i}: {q.text}" for i, q in enumerate(questions, start=1))


def build_qa_prompt(
    article: str,
    questions: list[QuestionSpec],
    icl_examples: list[IclExample],
    templates: PromptTemplates = DEFAULT_TEMPLATES,
) -> PromptBundle:
    """Render the QA-then-summarize prompt.

    Questions must already be ordered best-first; each ICL example must
    carry exactly one answer per question. With no questions this is the
    plain ICL prompt (the k = 0 degenerate case), reported as kind "qa".
    """
    k = len(questions)
    for idx, ex in enumerate(icl_examples):
        if len(ex.answers) != k:
            raise AnswerCountMismatch(idx, k, len(ex.answers))
    if k == 0:
        icl = build_icl_prompt(article, icl_examples, templates)
        return PromptBundle(
            kind="qa",
            text=icl.text,
            k=0,
            question_keys=(),
            answer_markers=(),
            stop_sequences=icl.stop_sequences,
        )

    q_block = _question_lines(questions)
    blocks = []
    for ex in icl_examples:
        blocks.append(
            f"{templates.qa_instruction}\n{ex.article}\n{q_block}\n"
            + render_output_block(ex.answers, ex.reference)
        )
    blocks.append(f"{templates.qa_instruction}\n{article}\n{q_block}\nA:")
    return PromptBundle(
        kind="qa",
        text="\n\n".join(blocks),
        k=k,
        question_keys=tuple(q.key for q in questions),
        answer_markers=tuple(f"A{i}:" for i in range(1, k + 1)),
        stop_sequences=(templates.qa_instruction,),
    )


def build_single_qa(
    article: str,
    question: QuestionSpec,
    templates: PromptTemplates = DEFAULT_TEMPLATES,
) -> PromptBundle:
    """The ranking-phase prompt: one question, the whole completion is the
    answer (no markers to parse)."""
    text = f"{templates.single_qa_instruction}\n{article}\nQ: {question.text}\nA:"
    return PromptBundle(
        kind="qa",
        text=text,
        k=1,
        question_keys=(question.key,),
        answer_markers=(),
        stop_sequences=(templates.single_qa_instruction,),
    )


def _strip_template_period(span: str) -> str:
    span = span.strip()
    if span.endswith("."):
        span = span[:-1]
    return span


def parse_output(completion: str, bundle: PromptBundle) -> ParsedOutput:
    """Recover answers and summary from a completion.

    ok: all answer markers present and an explicit summary marker after
    them. fallback: markers present, summary marker missing — the text
    after the final answer line is taken as the summary. failed: markers
    missing (k >= 1) or the summary came out empty; failed rows carry
    summary "" and score accordingly.
    """
    k = bundle.k
    if not bundle.answer_markers:
        # vanilla / icl / degenerate qa: the completion is the summary.
        summary = truncate_at_stop(completion, bundle.stop_sequences)[0].strip()
        status = PARSE_OK if summary else PARSE_FAILED
        return ParsedOutput(answers=(), summary=summary, parse_status=status)

    positions = []
    cursor = 0
    for marker in bundle.answer_markers:
        idx = completion.find(marker, cursor)
        if idx == -1:
            return ParsedOutput(answers=(), summary="", parse_status=PARSE_FAILED)
        positions.append((idx, idx + len(marker)))
        cursor = idx + len(marker)

    spans = []
    for i in range(k - 1):
        spans.append(completion[positions[i][1] : positions[i + 1][0]])
    tail = completion[positions[-1][1] :]

    summary_idx = tail.rfind(SUMMARY_MARKER)
    if summary_idx != -1:
        spans.append(tail[:summary_idx])
        raw_summary = tail[summary_idx + len(SUMMARY_MARKER) :]
        status = PARSE_OK
    else:
        # No summary marker: the final answer is its line, the summary is
        # whatever follows it.
        newline = tail.find("\n")
        if newline == -1:
            spans.append(tail)
            raw_summary = ""
        else:
            spans.append(tail[:newline])
            raw_summary = tail[newline + 1 :]
        status = PARSE_FALLBACK

    answers = tuple(_strip_template_period(s) for s in spans)
    summary = _strip_template_period(truncate_at_stop(raw_summary, bundle.stop_sequences)[0])
    if not summary:
        return ParsedOutput(answers=answers, summary="", parse_status=PARSE_FAILED)
    return ParsedOutput(answers=answers, summary=summary, parse_status=status)
