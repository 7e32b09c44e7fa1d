"""Prompt rendering goldens and completion-parser behavior."""

from __future__ import annotations

from dataclasses import replace
import random
import string

import pytest
from hypothesis import given, strategies as st

from conftest import PROMPT_GOLDEN_DIR
from qasum.prompting import (
    AnswerCountMismatch,
    IclExample,
    PARSE_FAILED,
    PARSE_FALLBACK,
    PARSE_OK,
    build_icl_prompt,
    build_qa_prompt,
    build_single_qa,
    build_vanilla,
    parse_output,
    render_output_block,
)
from qasum.questions import builtin_bank

BANK = {q.key: q for q in builtin_bank()}

TARGET_ARTICLE = (
    "The city council met on Tuesday to debate the harbor cleanup plan. "
    "Residents asked for faster timelines and clearer funding."
)
EX_ARTICLE = (
    "Volunteers cleaned the beach on Saturday morning. "
    "Organizers thanked the local sponsors for supplies and snacks."
)
EX_REFERENCE = "volunteers cleaned the beach and organizers thanked local sponsors"
EX_ANSWERS5 = (
    "the beach cleanup and its organizers",
    "volunteers cleaned the beach and sponsors helped",
    "volunteers organizers and local sponsors",
    "saturday morning",
    "supplies and snacks were donated",
)
QS5 = [BANK[k] for k in ("topic", "key_pts", "entities", "timeline", "details")]


def golden(name: str) -> str:
    return (PROMPT_GOLDEN_DIR / name).read_text(encoding="utf-8")


# --- golden prompts ----------------------------------------------------------


def test_golden_qa_k2():
    bundle = build_qa_prompt(
        TARGET_ARTICLE, QS5[:2], [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5[:2])]
    )
    assert bundle.text == golden("qa_k2.txt")
    assert bundle.k == 2
    assert bundle.question_keys == ("topic", "key_pts")
    assert bundle.answer_markers == ("A1:", "A2:")


def test_golden_qa_k5():
    bundle = build_qa_prompt(
        TARGET_ARTICLE, QS5, [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5)]
    )
    assert bundle.text == golden("qa_k5.txt")


def test_golden_qa_k0_equals_icl():
    qa = build_qa_prompt(TARGET_ARTICLE, [], [IclExample(EX_ARTICLE, EX_REFERENCE)])
    icl = build_icl_prompt(TARGET_ARTICLE, [IclExample(EX_ARTICLE, EX_REFERENCE)])
    assert qa.text == golden("qa_k0.txt")
    assert icl.text == golden("icl.txt")
    assert qa.text == icl.text
    assert qa.kind == "qa" and icl.kind == "icl"


def test_golden_vanilla_and_single():
    assert build_vanilla(TARGET_ARTICLE).text == golden("vanilla.txt")
    assert build_single_qa(EX_ARTICLE, BANK["topic"]).text == golden("single_qa_topic.txt")


def test_prompt_determinism():
    one = build_qa_prompt(TARGET_ARTICLE, QS5, [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5)])
    two = build_qa_prompt(TARGET_ARTICLE, QS5, [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5)])
    assert one.text == two.text


# --- template structure ------------------------------------------------------


def test_vanilla_has_exactly_one_summary_marker():
    assert build_vanilla(TARGET_ARTICLE).text.count("Summary:") == 1


def test_builders_are_total_on_empty_article():
    # upstream validation prevents empty articles in practice
    assert build_vanilla("").text.endswith("Summary:")
    assert build_single_qa("", BANK["topic"]).text.endswith("A:")


def test_icl_zero_examples_equals_vanilla():
    assert build_icl_prompt(TARGET_ARTICLE, []).text == build_vanilla(TARGET_ARTICLE).text


def test_icl_example_carries_reference_verbatim():
    text = build_icl_prompt(TARGET_ARTICLE, [IclExample(EX_ARTICLE, EX_REFERENCE)]).text
    assert EX_REFERENCE in text


def test_answer_count_mismatch():
    with pytest.raises(AnswerCountMismatch):
        build_qa_prompt(
            TARGET_ARTICLE, QS5[:2], [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5[:1])]
        )


def test_single_qa_prompts_differ_only_in_question_line():
    a = build_single_qa(EX_ARTICLE, BANK["topic"]).text
    b = build_single_qa(EX_ARTICLE, BANK["tone"]).text
    diff = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y]
    assert len(diff) == 1
    assert diff[0][0].startswith("Q: ")


def test_question_block_is_prefix_extension():
    def question_block(k):
        bundle = build_qa_prompt(TARGET_ARTICLE, QS5[:k], [])
        target = bundle.text
        return target[target.index("Q1:") : target.rindex("\nA:")]

    for k in range(1, 5):
        assert question_block(k + 1).startswith(question_block(k))


# --- parsing -----------------------------------------------------------------


def qa_bundle(k):
    questions = QS5[:k]
    answers = EX_ANSWERS5[:k]
    return build_qa_prompt(TARGET_ARTICLE, questions, [IclExample(EX_ARTICLE, EX_REFERENCE, answers)])


def test_parse_round_trip_simple():
    bundle = qa_bundle(2)
    completion = " " + render_output_block(["first answer", "second answer"], "a tidy summary")[2:]
    # render_output_block starts with "A: "; the model's completion follows the
    # prompt's trailing "A:" so it begins at the first answer marker.
    parsed = parse_output(completion, bundle)
    assert parsed.parse_status == PARSE_OK
    assert parsed.answers == ("first answer", "second answer")
    assert parsed.summary == "a tidy summary"


def test_parse_fallback_without_summary_marker():
    bundle = qa_bundle(2)
    completion = " A1: alpha. A2: beta.\nthese are the key findings overall"
    parsed = parse_output(completion, bundle)
    assert parsed.parse_status == PARSE_FALLBACK
    assert parsed.answers == ("alpha", "beta")
    assert parsed.summary == "these are the key findings overall"


def test_parse_failed_on_garbage():
    parsed = parse_output("garbage", qa_bundle(2))
    assert parsed.parse_status == PARSE_FAILED
    assert parsed.summary == ""


def test_parse_failed_on_missing_marker():
    parsed = parse_output(" A1: only one answer.\nSummary: s.", qa_bundle(2))
    assert parsed.parse_status == PARSE_FAILED


def test_parse_failed_on_empty_summary():
    parsed = parse_output(" A1: a. A2: b.\nSummary:", qa_bundle(2))
    assert parsed.parse_status == PARSE_FAILED
    assert parsed.summary == ""


def test_parse_takes_last_summary_marker():
    bundle = qa_bundle(1)
    completion = " A1: recap. Summary: draft.\nSummary: final."
    parsed = parse_output(completion, bundle)
    assert parsed.parse_status == PARSE_OK
    assert parsed.summary == "final"


def test_parse_k0_takes_completion_as_summary():
    bundle = build_icl_prompt(TARGET_ARTICLE, [IclExample(EX_ARTICLE, EX_REFERENCE)])
    parsed = parse_output(" the cleanup plan moved forward", bundle)
    assert parsed.parse_status == PARSE_OK
    assert parsed.answers == ()
    assert parsed.summary == "the cleanup plan moved forward"


def test_parse_k0_empty_completion_fails():
    bundle = build_vanilla(TARGET_ARTICLE)
    assert parse_output("   ", bundle).parse_status == PARSE_FAILED


def test_parse_k0_cuts_at_stop_sentinel():
    bundle = build_vanilla(TARGET_ARTICLE)
    completion = " a good summary\n\nSummarize the following article.\nmore stuff"
    parsed = parse_output(completion, bundle)
    assert parsed.summary == "a good summary"


def test_parse_cuts_at_earliest_of_overlapping_stops():
    bundle = replace(build_vanilla(TARGET_ARTICLE), stop_sequences=("END", "xEND"))
    assert parse_output(" summary xEND tail", bundle).summary == "summary"


def test_parse_round_trip_seeded_random():
    rng = random.Random(1234)
    bank = builtin_bank()
    for _ in range(300):
        k = rng.randint(1, 5)
        answers = [
            " ".join(rng.choice(["alpha", "beta", "gamma", "delta", "omega"]) for _ in range(rng.randint(1, 4)))
            for _ in range(k)
        ]
        summary = " ".join(
            rng.choice(["north", "south", "east", "west", "center"]) for _ in range(rng.randint(1, 6))
        )
        bundle = build_qa_prompt(
            TARGET_ARTICLE,
            [BANK[q.key] for q in bank[:k]],
            [IclExample(EX_ARTICLE, EX_REFERENCE, tuple(answers))],
        )
        completion = " " + render_output_block(answers, summary)[len("A: ") :]
        parsed = parse_output(completion, bundle)
        assert parsed.parse_status == PARSE_OK
        assert list(parsed.answers) == answers
        assert parsed.summary == summary


phrases = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8), min_size=1, max_size=4
).map(" ".join)


@given(st.lists(phrases, min_size=1, max_size=5), phrases)
def test_parse_round_trip_property(answers, summary):
    k = len(answers)
    bundle = build_qa_prompt(
        TARGET_ARTICLE,
        [q for q in builtin_bank()[:k]],
        [IclExample(EX_ARTICLE, EX_REFERENCE, tuple(answers))],
    )
    completion = " " + render_output_block(answers, summary)[len("A: ") :]
    parsed = parse_output(completion, bundle)
    assert parsed.parse_status == PARSE_OK
    assert list(parsed.answers) == answers
    assert parsed.summary == summary
