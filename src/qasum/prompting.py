"""Prompt rendering and completion parsing.

Two prompts are rendered byte-exactly from three fixed instructions. The
summarization prompt (``build_qa_prompt``) asks k questions and then a
summary, after any completed example blocks; the paper's baselines are
that prompt at k = 0: vanilla with no examples, icl with examples, both
under the zero-shot summarization instruction. The single-question
answering prompt is used by the ranking phase. Each prompt stops at its
own instruction, so a completion that starts another example is cut
there by ``CompletionClient.generate``. Completions are parsed back into
per-question answers plus a summary, with graceful fallback states so a
batch run never aborts on one bad generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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


@dataclass(frozen=True)
class IclExample:
    """A completed example block: article, reference summary, and (for qa
    prompts) one generated answer per prompt question."""

    article: str
    reference: str
    answers: tuple[str, ...] = ()


@dataclass(frozen=True)
class PromptBundle:
    text: str
    k: int
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


def build_qa_prompt(
    article: str, questions: list[QuestionSpec], icl_examples: list[IclExample]
) -> PromptBundle:
    """Render the summarization prompt: answer the questions, then summarize.

    Questions must already be ordered best-first; each ICL example must
    carry exactly one answer per question, or ValueError names the first
    that does not. With no questions this is the plain summarization
    prompt under the zero-shot instruction: vanilla with no examples, icl
    with them.
    """
    k = len(questions)
    for idx, ex in enumerate(icl_examples):
        if len(ex.answers) != k:
            raise ValueError(f"ICL example {idx} supplies {len(ex.answers)} answer(s);"
                             f" prompt has {k} question(s)")
    if k == 0:
        blocks = [
            f"{VANILLA_INSTRUCTION}\n{ex.article}\n{SUMMARY_MARKER} {ex.reference}."
            for ex in icl_examples
        ]
        blocks.append(f"{VANILLA_INSTRUCTION}\n{article}\n{SUMMARY_MARKER}")
        return PromptBundle(
            text="\n\n".join(blocks), k=0, answer_markers=(), stop_sequences=(VANILLA_INSTRUCTION,)
        )

    q_block = "\n".join(f"Q{i}: {q.text}" for i, q in enumerate(questions, start=1))
    blocks = []
    for ex in icl_examples:
        blocks.append(
            f"{QA_INSTRUCTION}\n{ex.article}\n{q_block}\n"
            + render_output_block(ex.answers, ex.reference)
        )
    blocks.append(f"{QA_INSTRUCTION}\n{article}\n{q_block}\nA:")
    return PromptBundle(
        text="\n\n".join(blocks),
        k=k,
        answer_markers=tuple(f"A{i}:" for i in range(1, k + 1)),
        stop_sequences=(QA_INSTRUCTION,),
    )


def build_single_qa(article: str, question: QuestionSpec) -> PromptBundle:
    """The ranking-phase prompt: one question, the whole completion is the
    answer (no markers to parse)."""
    text = f"{SINGLE_QA_INSTRUCTION}\n{article}\nQ: {question.text}\nA:"
    return PromptBundle(
        text=text, k=1, answer_markers=(), stop_sequences=(SINGLE_QA_INSTRUCTION,)
    )


def _strip_template_period(span: str) -> str:
    span = span.strip()
    if span.endswith("."):
        span = span[:-1]
    return span


def parse_output(completion: str, bundle: PromptBundle) -> ParsedOutput:
    """Recover answers and summary from a completion that
    ``CompletionClient.generate`` has already cut at the bundle's stop
    sequences.

    ok: all answer markers present and an explicit summary marker after
    them. fallback: markers present, summary marker missing — the text
    after the final answer line is taken as the summary. failed: markers
    missing (k >= 1) or the summary came out empty; failed rows carry
    summary "" and score accordingly.
    """
    k = bundle.k
    if not bundle.answer_markers:
        # k = 0 (vanilla, icl): the completion is the summary.
        summary = completion.strip()
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
    summary = _strip_template_period(raw_summary)
    if not summary:
        return ParsedOutput(answers=answers, summary="", parse_status=PARSE_FAILED)
    return ParsedOutput(answers=answers, summary=summary, parse_status=status)
