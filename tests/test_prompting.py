"""Prompt rendering goldens and completion-parser behavior."""

from __future__ import annotations

import random
import string

import pytest
from hypothesis import given, strategies as st

from conftest import PROMPT_GOLDEN_DIR, StubBackend, make_lm_config
from qasum.lm import CompletionClient
from qasum.prompting import (
    ANSWER_MARKERS,
    IclExample,
    PARSE_FAILED,
    PARSE_FALLBACK,
    PARSE_OK,
    QA_INSTRUCTION,
    SINGLE_QA_INSTRUCTION,
    SUMMARY_MARKER,
    VANILLA_INSTRUCTION,
    parse_output,
    qa_frame,
    render_output_block,
    single_qa_frame,
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


def around(frame, article: str) -> str:
    """The prompt ``frame`` makes for ``article``."""
    return frame.head + article + frame.tail


# --- golden prompts ----------------------------------------------------------


def test_golden_qa_k2():
    frame = qa_frame(QS5[:2], [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5[:2])])
    assert frame.head + TARGET_ARTICLE + frame.tail == golden("qa_k2.txt")
    assert frame.k == 2
    assert ANSWER_MARKERS[:frame.k] == ("A1:", "A2:")


def test_golden_qa_k5():
    frame = qa_frame(QS5, [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5)])
    assert frame.head + TARGET_ARTICLE + frame.tail == golden("qa_k5.txt")


def test_golden_qa_k0_equals_icl():
    # icl is qa at k = 0, so both goldens come from one call.
    qa = qa_frame([], [IclExample(EX_ARTICLE, EX_REFERENCE)])
    assert qa.head + TARGET_ARTICLE + qa.tail == golden("qa_k0.txt")
    assert qa.head + TARGET_ARTICLE + qa.tail == golden("icl.txt")
    assert qa.k == 0


def test_golden_vanilla_and_single():
    # vanilla is qa at k = 0 with no examples.
    vanilla = qa_frame([], [])
    assert vanilla.head + TARGET_ARTICLE + vanilla.tail == golden("vanilla.txt")
    single = single_qa_frame(BANK["topic"])
    assert single.head + EX_ARTICLE + single.tail == golden("single_qa_topic.txt")


def test_prompt_determinism():
    one = qa_frame(QS5, [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5)])
    two = qa_frame(QS5, [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5)])
    assert around(one, TARGET_ARTICLE) == around(two, TARGET_ARTICLE)


# --- template structure ------------------------------------------------------


def test_vanilla_has_exactly_one_summary_marker():
    assert around(qa_frame([], []), TARGET_ARTICLE).count("Summary:") == 1


def test_builders_are_total_on_empty_article():
    # upstream validation prevents empty articles in practice
    assert around(qa_frame([], []), "").endswith("Summary:")
    assert around(single_qa_frame(BANK["topic"]), "").endswith("A:")


def test_icl_example_carries_reference_verbatim():
    text = around(qa_frame([], [IclExample(EX_ARTICLE, EX_REFERENCE)]), TARGET_ARTICLE)
    assert EX_REFERENCE in text


def test_answer_count_mismatch():
    with pytest.raises(ValueError, match="^ICL example 0 supplies 1 answer"):
        qa_frame(QS5[:2], [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5[:1])])


def test_single_qa_prompts_differ_only_in_question_line():
    a = around(single_qa_frame(BANK["topic"]), EX_ARTICLE)
    b = around(single_qa_frame(BANK["tone"]), EX_ARTICLE)
    diff = [(x, y) for x, y in zip(a.splitlines(), b.splitlines()) if x != y]
    assert len(diff) == 1
    assert diff[0][0].startswith("Q: ")


def test_question_block_is_prefix_extension():
    def question_block(k):
        target = around(qa_frame(QS5[:k], []), TARGET_ARTICLE)
        return target[target.index("Q1:") : target.rindex("\nA:")]

    for k in range(1, 5):
        assert question_block(k + 1).startswith(question_block(k))


# --- prompt frames -----------------------------------------------------------


def joined_prompt(article, questions, examples):
    """The summarization prompt written out block by block: each example's
    block, then the target's, joined by blank lines."""
    q_block = "\n".join(f"Q{i}: {q.text}" for i, q in enumerate(questions, start=1))
    if questions:
        blocks = [f"{QA_INSTRUCTION}\n{ex.article}\n{q_block}\n"
                  + render_output_block(ex.answers, ex.reference) for ex in examples]
        blocks.append(f"{QA_INSTRUCTION}\n{article}\n{q_block}\nA:")
    else:
        blocks = [f"{VANILLA_INSTRUCTION}\n{ex.article}\n{SUMMARY_MARKER} {ex.reference}."
                  for ex in examples]
        blocks.append(f"{VANILLA_INSTRUCTION}\n{article}\n{SUMMARY_MARKER}")
    return "\n\n".join(blocks)


prompt_text = st.lists(
    st.one_of(
        st.text(max_size=8),
        st.sampled_from(["\0", "\n", "\n\n", QA_INSTRUCTION, SINGLE_QA_INSTRUCTION,
                         VANILLA_INSTRUCTION, SUMMARY_MARKER, "A1:", "Q1:"]),
    ),
    max_size=6,
).map("".join)


@st.composite
def frame_inputs(draw):
    questions = draw(st.permutations(list(BANK.values())))[: draw(st.integers(0, 3))]
    examples = draw(st.lists(
        st.builds(IclExample, prompt_text, prompt_text,
                  st.tuples(*[prompt_text] * len(questions))),
        max_size=2,
    ))
    return draw(prompt_text), questions, examples


@given(frame_inputs(), st.sampled_from(list(BANK.values())))
def test_frame_around_article_is_the_prompt(inputs, question):
    article, questions, examples = inputs
    frame = qa_frame(questions, examples)
    assert frame.head + article + frame.tail == joined_prompt(article, questions, examples)
    stop = QA_INSTRUCTION if questions else VANILLA_INSTRUCTION
    assert (frame.k, frame.stop) == (len(questions), stop)

    single = single_qa_frame(question)
    assert (single.head + article + single.tail
            == f"{SINGLE_QA_INSTRUCTION}\n{article}\nQ: {question.text}\nA:")
    assert (single.k, single.stop) == (0, SINGLE_QA_INSTRUCTION)


# --- parsing -----------------------------------------------------------------


def test_parse_round_trip_simple():
    completion = " " + render_output_block(["first answer", "second answer"], "a tidy summary")[2:]
    # render_output_block starts with "A: "; the model's completion follows the
    # prompt's trailing "A:" so it begins at the first answer marker.
    parsed = parse_output(completion, 2)
    assert parsed.parse_status == PARSE_OK
    assert parsed.answers == ("first answer", "second answer")
    assert parsed.summary == "a tidy summary"


def test_parse_fallback_without_summary_marker():
    completion = " A1: alpha. A2: beta.\nthese are the key findings overall"
    parsed = parse_output(completion, 2)
    assert parsed.parse_status == PARSE_FALLBACK
    assert parsed.answers == ("alpha", "beta")
    assert parsed.summary == "these are the key findings overall"


def test_parse_failed_on_garbage():
    parsed = parse_output("garbage", 2)
    assert parsed.parse_status == PARSE_FAILED
    assert parsed.summary == ""


def test_parse_failed_on_missing_marker():
    parsed = parse_output(" A1: only one answer.\nSummary: s.", 2)
    assert parsed.parse_status == PARSE_FAILED


def test_parse_failed_on_empty_summary():
    parsed = parse_output(" A1: a. A2: b.\nSummary:", 2)
    assert parsed.parse_status == PARSE_FAILED
    assert parsed.summary == ""


def test_parse_takes_last_summary_marker():
    completion = " A1: recap. Summary: draft.\nSummary: final."
    parsed = parse_output(completion, 1)
    assert parsed.parse_status == PARSE_OK
    assert parsed.summary == "final"


def test_parse_k0_takes_completion_as_summary():
    frame = qa_frame([], [IclExample(EX_ARTICLE, EX_REFERENCE)])
    parsed = parse_output(" the cleanup plan moved forward", frame.k)
    assert parsed.parse_status == PARSE_OK
    assert parsed.answers == ()
    assert parsed.summary == "the cleanup plan moved forward"


def test_parse_k0_empty_completion_fails():
    assert parse_output("   ", qa_frame([], []).k).parse_status == PARSE_FAILED


def generate_and_parse(reply: str, frame):
    """A completion as a run sees it: cut by ``CompletionClient.generate``
    at the frame's stop, then parsed."""
    client = CompletionClient(make_lm_config(), backend=StubBackend(reply))
    completion, _ = client.generate(frame, TARGET_ARTICLE)
    return parse_output(completion, frame.k)


def test_parse_k0_cuts_at_stop_sentinel():
    completion = " a good summary\n\nSummarize the following article.\nmore stuff"
    parsed = generate_and_parse(completion, qa_frame([], []))
    assert parsed.parse_status == PARSE_OK
    assert parsed.summary == "a good summary"


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
        frame = qa_frame(
            [BANK[q.key] for q in bank[:k]],
            [IclExample(EX_ARTICLE, EX_REFERENCE, tuple(answers))],
        )
        completion = " " + render_output_block(answers, summary)[len("A: ") :]
        parsed = parse_output(completion, frame.k)
        assert parsed.parse_status == PARSE_OK
        assert list(parsed.answers) == answers
        assert parsed.summary == summary


phrases = st.lists(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8), min_size=1, max_size=4
).map(" ".join)


@given(st.lists(phrases, min_size=1, max_size=5), phrases)
def test_parse_round_trip_property(answers, summary):
    k = len(answers)
    frame = qa_frame(
        [q for q in builtin_bank()[:k]],
        [IclExample(EX_ARTICLE, EX_REFERENCE, tuple(answers))],
    )
    completion = " " + render_output_block(answers, summary)[len("A: ") :]
    parsed = parse_output(completion, frame.k)
    assert parsed.parse_status == PARSE_OK
    assert list(parsed.answers) == answers
    assert parsed.summary == summary


completion_pieces = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["A1:", "A2:", "A3:", "A4:", "A5:", SUMMARY_MARKER, "\n", ".", " ", QA_INSTRUCTION]),
)


@given(st.lists(completion_pieces, max_size=12).map("".join), st.integers(min_value=0, max_value=5))
def test_parse_status_property(completion, k):
    frame = qa_frame(QS5[:k], [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5[:k])])
    parsed = parse_output(completion, frame.k)
    assert parsed.parse_status in (PARSE_OK, PARSE_FALLBACK, PARSE_FAILED)
    assert (parsed.parse_status == PARSE_FAILED) == (parsed.summary == "")


model_pieces = st.one_of(
    st.text(max_size=20),
    st.sampled_from(
        ["A1:", "A2:", "A3:", "A4:", "A5:", SUMMARY_MARKER, "\n",
         QA_INSTRUCTION, SINGLE_QA_INSTRUCTION, VANILLA_INSTRUCTION]
    ),
)


@given(
    st.lists(model_pieces, max_size=12).map("".join),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
)
def test_generated_completion_is_cut_once_before_parsing(reply, k, with_example):
    examples = [IclExample(EX_ARTICLE, EX_REFERENCE, EX_ANSWERS5[:k])] if with_example else []
    frame = qa_frame(QS5[:k], examples)
    parsed = generate_and_parse(reply, frame)
    assert frame.stop not in parsed.summary
    assert not any(frame.stop in answer for answer in parsed.answers)
    assert (parsed.parse_status == PARSE_FAILED) == (parsed.summary == "")
