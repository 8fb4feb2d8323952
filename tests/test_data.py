"""Data layer: hidden-Markov corpus generation, corpus file round trips,
reward functions, and the exact-rational expression evaluator."""

import ast
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actlm.data import (CountdownTask, HmmCorpusConfig, SftExample,
                        countdown_reward, decode_tokens, encode_text,
                        evaluate_expression, gen_hmm_corpus, hmm_matrices,
                        load_corpus, make_sft_split, marker_reward,
                        open_prefixes, save_corpus)
from actlm.runconfig import ConfigError


def test_hmm_corpus_is_deterministic():
    cfg = HmmCorpusConfig(n_sequences=8, seq_len=10, seed=42)
    a, sa = gen_hmm_corpus(cfg)
    b, sb = gen_hmm_corpus(cfg)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(sa, sb)
    c, _ = gen_hmm_corpus(HmmCorpusConfig(n_sequences=8, seq_len=10, seed=43))
    assert not np.array_equal(a, c)


def test_hmm_tokens_in_range_and_states_match_emissions():
    cfg = HmmCorpusConfig(n_states=3, vocab_size=7, n_sequences=16, seq_len=20, seed=1)
    tokens, states = gen_hmm_corpus(cfg)
    assert tokens.shape == states.shape == (16, 20)
    assert tokens.min() >= 0 and tokens.max() < 7
    assert states.min() >= 0 and states.max() < 3


def test_hmm_matrices_are_rowwise_distributions():
    cfg = HmmCorpusConfig(seed=5)
    trans, emit, init = hmm_matrices(cfg)
    np.testing.assert_allclose(trans.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(emit.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(init.sum(), 1.0, atol=1e-12)


def test_hmm_statistics_match_matrices():
    """Empirical emission frequencies track the generating matrices."""
    cfg = HmmCorpusConfig(n_states=2, vocab_size=4, n_sequences=300,
                          seq_len=40, seed=9, transition_concentration=1.0,
                          emission_concentration=1.0)
    tokens, states = gen_hmm_corpus(cfg)
    _, emit, _ = hmm_matrices(cfg)
    for s in range(2):
        sel = tokens[states == s]
        freq = np.bincount(sel, minlength=4) / len(sel)
        np.testing.assert_allclose(freq, emit[s], atol=0.03)


def test_corpus_round_trip(tmp_path):
    cfg = HmmCorpusConfig(n_sequences=5, seq_len=8, seed=0)
    tokens, states = gen_hmm_corpus(cfg)
    path = tmp_path / "corpus.txt"
    save_corpus(path, tokens, seed=0, states=states)
    loaded, header = load_corpus(path)
    np.testing.assert_array_equal(loaded, tokens)
    assert header["count"] == 5 and header["length"] == 8 and header["seed"] == 0
    loaded_states, _ = load_corpus(str(path) + ".states")
    np.testing.assert_array_equal(loaded_states, states)


def test_make_sft_split():
    corpus = np.arange(20).reshape(2, 10)
    examples = make_sft_split(corpus, 3)
    assert len(examples) == 2
    np.testing.assert_array_equal(examples[0].prompt, [0, 1, 2])
    np.testing.assert_array_equal(examples[0].response, np.arange(3, 10))
    with pytest.raises(ValueError):
        make_sft_split(corpus, 10)


def test_open_prefixes_skip_rows_ending_in_eos():
    corpus = np.array([[3, 0, 5], [4, 5, 0], [0, 6, 7], [1, 0, 0]])
    np.testing.assert_array_equal(open_prefixes(corpus, 2, 2, eos=0),
                                  [[4, 5], [0, 6]])
    with pytest.raises(ConfigError, match="only 2 length-2"):
        open_prefixes(corpus, 3, 2, eos=0)
    with pytest.raises(ConfigError, match="prefix length 4"):
        open_prefixes(corpus, 1, 4, eos=0)


def test_marker_reward():
    assert marker_reward([1, 2, 3], 2) == 1.0
    assert marker_reward([1, 2, 3], 9) == 0.0
    assert marker_reward([], 0) == 0.0


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

def oracle_eval(expr: str):
    """Independent evaluator: python ast over Fractions."""
    expr = expr.replace("×", "*").replace("÷", "/")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        return None

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Fraction(node.value)
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                if right == 0:
                    raise ZeroDivisionError
                return left / right
        raise ValueError("unsupported node")

    try:
        return walk(tree)
    except (ValueError, ZeroDivisionError):
        return None


@pytest.mark.parametrize("expr", [
    "1+2*3", "(1+2)*3", "10/4", "7-2-3", "100/(3-3+1)", "2*3*4", "(5)",
    "12/5/2", "1+2+3+4", "(2+3)*(4-1)", "9×3÷2",
])
def test_evaluate_expression_matches_ast_oracle(expr):
    value, _ = evaluate_expression(expr)
    assert value == oracle_eval(expr)


@pytest.mark.parametrize("expr", [
    "", "1+", "(1+2", "1//2", "abc", "1 2", "2**3", "-3", "1/0", "1/(2-2)",
])
def test_evaluate_expression_rejects_malformed(expr):
    value, literals = evaluate_expression(expr)
    assert value is None and literals == []


def test_evaluate_expression_collects_literals():
    _, literals = evaluate_expression("(12+3)*12")
    assert literals == [12, 3, 12]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 99), min_size=2, max_size=4),
       st.sampled_from(["+", "-", "*"]))
def test_expression_property_matches_oracle(nums, op):
    expr = op.join(str(n) for n in nums)
    value, literals = evaluate_expression(expr)
    assert value == oracle_eval(expr)
    assert literals == nums


# ---------------------------------------------------------------------------
# Countdown reward
# ---------------------------------------------------------------------------

def test_countdown_reward_cases():
    task = CountdownTask([3, 5, 2], 13)
    fmt, corr = countdown_reward(task, "<think>x</think><answer>3*5-2</answer>")
    assert (fmt, corr) == (1.0, 1.0)
    # correct but with extra text outside the tags: format fails, answer counts
    fmt, corr = countdown_reward(task, "ok <think></think><answer>3*5-2</answer>")
    assert (fmt, corr) == (0.0, 1.0)
    # well-formed but wrong value
    fmt, corr = countdown_reward(task, "<think></think><answer>3+5+2</answer>")
    assert (fmt, corr) == (1.0, 0.0)
    # wrong arity: a number used twice
    fmt, corr = countdown_reward(task, "<think></think><answer>3*5-2*2/2</answer>")
    assert (fmt, corr) == (1.0, 0.0)
    # missing tags entirely
    assert countdown_reward(task, "3*5-2") == (0.0, 0.0)


def test_countdown_requires_exact_rational_value():
    task = CountdownTask([10, 3], 3)
    # 10/3 is not 3 even though it rounds to 3
    fmt, corr = countdown_reward(task, "<think></think><answer>10/3</answer>")
    assert (fmt, corr) == (1.0, 0.0)


def test_countdown_rejects_nonpositive_numbers():
    with pytest.raises(ValueError):
        CountdownTask([0, 3], 3)


def test_text_round_trip():
    text = "<think>1+2</think><answer>3</answer>"
    ids = encode_text(text)
    assert decode_tokens(ids) == text
    assert decode_tokens(np.concatenate([ids, [0, 5, 6]])) == text  # eos stops
    with pytest.raises(ValueError):
        encode_text("bad character: Z")
