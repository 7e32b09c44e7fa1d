"""Prompt rendering and completion parsing.

Every prompt is a ``PromptFrame``: the text before and after its target
article, so the prompt is ``head + article + tail``. Two frames are
rendered byte-exactly from three fixed instructions. ``qa_frame`` asks k
questions and then a summary, after any completed example blocks; the
paper's baselines are that prompt at k = 0: vanilla with no examples,
icl with examples, both under the zero-shot summarization instruction.
Everything in it but the article depends only on the questions and
examples, so an evaluation run renders one frame per prompt cell and
glues each instance's article into it. ``single_qa_frame`` asks one
question and is used by the ranking phase and for the examples' answers.
Each prompt stops at its own instruction, so a completion that starts
another example is cut there by ``CompletionClient.generate``.
Completions are parsed back into per-question answers plus a summary,
with graceful fallback states so a batch run never aborts on one bad
generation.
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

# A k-question prompt's answers follow ANSWER_MARKERS[:k]; a prompt asks
# at most ten questions, the size of the built-in bank.
ANSWER_MARKERS = tuple(f"A{i}:" for i in range(1, 11))


@dataclass(frozen=True, slots=True)
class IclExample:
    """A completed example block: article, reference summary, and (for qa
    prompts) one generated answer per prompt question."""

    article: str
    reference: str
    answers: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class PromptFrame:
    """A prompt with its target article left out: the prompt is
    ``head + article + tail``, as ``CompletionClient.generate`` glues it.
    ``k`` is the number of questions whose answers ``parse_output``
    expects before the summary (0 when the completion is the summary, or
    a single answer); it also sets the request's budget,
    ``compute_max_tokens(k)``."""

    head: str
    tail: str
    k: int
    stop_sequences: tuple[str, ...]


def qa_frame(questions: list[QuestionSpec], icl_examples: list[IclExample]) -> PromptFrame:
    """Render the summarization prompt around its target article: answer
    the questions, then summarize.

    Questions must already be ordered best-first, at most ten of them;
    each ICL example must carry exactly one answer per question, or
    ValueError names the first that does not. With no questions this is
    the plain summarization prompt under the zero-shot instruction:
    vanilla with no examples, icl with them. Example blocks and the
    target block are separated by a blank line.
    """
    k = len(questions)
    if k > len(ANSWER_MARKERS):
        raise ValueError(f"prompt has {k} questions; at most {len(ANSWER_MARKERS)}")
    for idx, ex in enumerate(icl_examples):
        if len(ex.answers) != k:
            raise ValueError(f"ICL example {idx} supplies {len(ex.answers)} answer(s);"
                             f" prompt has {k} question(s)")
    if k == 0:
        blocks = "".join(
            f"{VANILLA_INSTRUCTION}\n{ex.article}\n{SUMMARY_MARKER} {ex.reference}.\n\n"
            for ex in icl_examples
        )
        return PromptFrame(head=f"{blocks}{VANILLA_INSTRUCTION}\n", tail=f"\n{SUMMARY_MARKER}",
                           k=0, stop_sequences=(VANILLA_INSTRUCTION,))

    q_block = "\n".join(f"Q{i}: {q.text}" for i, q in enumerate(questions, start=1))
    blocks = "".join(
        f"{QA_INSTRUCTION}\n{ex.article}\n{q_block}\n"
        + render_output_block(ex.answers, ex.reference) + "\n\n"
        for ex in icl_examples
    )
    return PromptFrame(
        head=f"{blocks}{QA_INSTRUCTION}\n",
        tail=f"\n{q_block}\nA:",
        k=k,
        stop_sequences=(QA_INSTRUCTION,),
    )


def single_qa_frame(question: QuestionSpec) -> PromptFrame:
    """The ranking-phase prompt around its article: one question, and the
    whole completion is the answer (no markers to parse)."""
    return PromptFrame(head=f"{SINGLE_QA_INSTRUCTION}\n", tail=f"\nQ: {question.text}\nA:",
                       k=0, stop_sequences=(SINGLE_QA_INSTRUCTION,))


def _strip_template_period(span: str) -> str:
    span = span.strip()
    if span.endswith("."):
        span = span[:-1]
    return span


def parse_output(completion: str, k: int) -> ParsedOutput:
    """Recover answers and summary from a completion that
    ``CompletionClient.generate`` has already cut at its prompt's stop
    sequences. ``k`` is the prompt's question count (its frame's ``k``);
    the answers are read after the markers ``A1:`` … ``Ak:``.

    ok: all answer markers present and an explicit summary marker after
    them. fallback: markers present, summary marker missing — the text
    after the final answer line is taken as the summary. failed: markers
    missing (k >= 1) or the summary came out empty; failed rows carry
    summary "" and score accordingly.
    """
    if k == 0:
        # k = 0 (vanilla, icl): the completion is the summary.
        summary = completion.strip()
        status = PARSE_OK if summary else PARSE_FAILED
        return ParsedOutput(answers=(), summary=summary, parse_status=status)

    positions = []
    cursor = 0
    for marker in ANSWER_MARKERS[:k]:
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
