"""Data layer: hidden-Markov corpus generation, inverse-CDF sampling,
prompts, the marker reward and the reward scorer."""

import math
import tracemalloc

import numpy as np
import pytest

from actlm.config import FieldError
from actlm.data import (_STAGED_STEPS, HmmCorpusConfig, Scorer, SftSplit,
                        cdf, gen_hmm_corpus, hmm_matrices, inverse_cdf,
                        make_sft_split, marker_reward, open_prefixes)
from actlm.runconfig import RunConfig

from conftest import frequency_tolerance


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
    """Empirical emission frequencies track the generating matrices, each
    of the 8 cells within conftest.frequency_tolerance: given the state
    path, emissions are independent draws."""
    cfg = HmmCorpusConfig(n_states=2, vocab_size=4, n_sequences=300,
                          seq_len=40, seed=9, transition_concentration=1.0,
                          emission_concentration=1.0)
    tokens, states = gen_hmm_corpus(cfg)
    _, emit, _ = hmm_matrices(cfg)
    for s in range(2):
        sel = tokens[states == s]
        freq = np.bincount(sel, minlength=4) / len(sel)
        tol = frequency_tolerance(emit[s], len(sel), cells=emit.size)
        assert np.all(np.abs(freq - emit[s]) <= tol), (s, freq, emit[s], tol)


def reference_hmm_params(cfg: HmmCorpusConfig, rng):
    """(trans, emit, init) drawn from rng in hmm_matrices' order."""
    m, v = cfg.n_states, cfg.vocab_size
    trans = rng.dirichlet(np.full(m, cfg.transition_concentration), size=m)
    emit = rng.dirichlet(np.full(v, cfg.emission_concentration), size=m)
    init = rng.dirichlet(np.full(m, 1.0))
    return trans, emit, init


def reference_hmm_corpus(cfg: HmmCorpusConfig):
    """The per-token sampler gen_hmm_corpus replaced: one sequence at a time,
    three rng.choice calls per token, parameters from the same seeded
    stream. Kept as the reference its distribution is checked against."""
    rng = np.random.default_rng(cfg.seed)
    m, v = cfg.n_states, cfg.vocab_size
    trans, emit, init = reference_hmm_params(cfg, rng)
    tokens = np.empty((cfg.n_sequences, cfg.seq_len), dtype=np.int64)
    states = np.empty((cfg.n_sequences, cfg.seq_len), dtype=np.int64)
    for i in range(cfg.n_sequences):
        s = rng.choice(m, p=init)
        for t in range(cfg.seq_len):
            states[i, t] = s
            tokens[i, t] = rng.choice(v, p=emit[s])
            s = rng.choice(m, p=trans[s])
    return tokens, states


def _empirical_cells(cfg, tokens, states):
    """(p, frequency, N) of every initial-state, transition and emission
    cell: the model probability, its empirical frequency and the number of
    draws it is a frequency of. Rows whose conditioning state never occurs
    are left out."""
    trans, emit, init = hmm_matrices(cfg)
    cells = [(init, np.bincount(states[:, 0], minlength=cfg.n_states))]
    src, dst = states[:, :-1].ravel(), states[:, 1:].ravel()
    for s in range(cfg.n_states):
        cells.append((trans[s], np.bincount(dst[src == s], minlength=cfg.n_states)))
        cells.append((emit[s], np.bincount(tokens[states == s],
                                           minlength=cfg.vocab_size)))
    return [(p, counts / counts.sum(), counts.sum())
            for p, counts in cells if counts.sum() > 0]


def test_hmm_sampler_matches_reference_in_distribution():
    """Both samplers' initial-state, transition and emission frequencies
    match hmm_matrices, over 10 seeds and shapes at the default
    concentration (0.3, so some cells are near zero).

    Each cell is held to conftest.frequency_tolerance over every cell of
    both samplers at every seed. Given the state path, emissions are
    independent draws, and by the Markov property so are the departures
    from each state."""
    configs = [HmmCorpusConfig(n_states=2 + seed % 3, vocab_size=4 + seed % 4,
                               n_sequences=300, seq_len=40, seed=seed)
               for seed in range(10)]
    runs = [(cfg, sampler(cfg)) for cfg in configs
            for sampler in (gen_hmm_corpus, reference_hmm_corpus)]
    cells = [cell for cfg, (tokens, states) in runs
             for p, freq, n in _empirical_cells(cfg, tokens, states)
             for cell in zip(p, freq, np.broadcast_to(n, p.shape))]
    for p, freq, n in cells:
        assert abs(freq - p) <= frequency_tolerance(p, n, len(cells)), (p, freq, n)


def test_inverse_cdf_never_draws_a_zero_probability_category():
    last_below_one = 1 - 2.0 ** -53
    # ten 0.1s sum to 1 - 2**-53: unnormalised, u = 1 - 2**-53 would pass
    # every category, and a clamp to the last index would draw the zero
    rows = [[0.0, 0.5, 0.0, 0.5, 0.0], [0.1] * 10 + [0.0], [0.0, 0.0, 1.0, 0.0]]
    for row in rows:
        for dtype in (np.float64, np.float32):
            probs = np.asarray(row, dtype)
            positive = np.flatnonzero(probs > 0)
            cum = cdf(probs)
            assert cum[-1] == 1.0
            assert inverse_cdf(cum, 0.0) == positive[0]
            assert inverse_cdf(cum, last_below_one) == positive[-1]
            u = np.random.default_rng(0).random(10_000)
            assert set(inverse_cdf(cum[:, None], u)) == set(positive)
    # batched: one cdf column per uniform
    probs = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]])
    np.testing.assert_array_equal(inverse_cdf(cdf(probs).T, [0.0, 0.7, 0.9]),
                                  [1, 2, 1])


def reference_rowwise_hmm_corpus(cfg: HmmCorpusConfig):
    """gen_hmm_corpus as it was with its cdf tables held one row per state:
    each step gathers a (n, k) row per sequence and counts cum <= u along
    its last axis. Kept as the reference the categories-first sampler is
    checked against bitwise."""
    rng = np.random.default_rng(cfg.seed)
    trans, emit, init = (cdf(p) for p in reference_hmm_params(cfg, rng))
    n = cfg.n_sequences
    tokens = np.empty((n, cfg.seq_len), dtype=np.int64)
    states = np.empty((n, cfg.seq_len), dtype=np.int64)

    def draw(cum, u):
        return (cum <= u[..., None]).sum(axis=-1)

    s = draw(init, rng.random(n))
    for t in range(cfg.seq_len):
        states[:, t] = s
        tokens[:, t] = draw(emit[s], rng.random(n))
        s = draw(trans[s], rng.random(n))
    return tokens, states


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("conc", [1e-6, 0.3, 10.0])
def test_hmm_corpus_matches_the_rowwise_sampler_bitwise(seed, conc):
    """The categories-first sampler returns the rowwise sampler's tokens and
    states exactly, as C-contiguous int16 (n, L) arrays (the reference keeps
    int64), down to one state, one step and one sequence, at near-degenerate
    and flat rows, at row lengths that fill the staging block once, spill
    one step past it and fill it twice, and with 32768 tokens, where the
    counts take uint16."""
    block = _STAGED_STEPS
    shapes = [(1, 2, 1, 1), (1, 16, 7, 5), (3, 1, 9, 4), (2, 5, 3, 1),
              (4, 16, 33, 17), (5, 11, 1, 64), (4, 16, 33, block),
              (4, 16, 33, block + 1), (4, 16, 33, 2 * block),
              (2, 32768, 3, block + 1)]
    for m, v, n, length in shapes:
        cfg = HmmCorpusConfig(n_states=m, vocab_size=v, n_sequences=n,
                              seq_len=length, seed=seed,
                              transition_concentration=conc,
                              emission_concentration=conc)
        for got, want in zip(gen_hmm_corpus(cfg), reference_rowwise_hmm_corpus(cfg)):
            assert got.dtype == np.int16 and got.shape == (n, length)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("k,dtype", [(255, np.uint8), (256, np.uint16),
                                     (32768, np.uint16)])
def test_inverse_cdf_counts_in_the_narrowest_dtype(k, dtype):
    """Counts over k categories are the int64 counts, held in the
    narrowest unsigned dtype that holds k, up to the last category."""
    rng = np.random.default_rng(k)
    probs = rng.random((64, k))
    probs[:, ::3] = 0.0
    probs[:, -1] = probs.sum(axis=1)  # half the mass on the last category
    cum = cdf(probs).T
    u = np.append(rng.random(63), 1 - 2.0 ** -53)
    got = inverse_cdf(cum, u)
    assert got.dtype == dtype
    want = (cum <= u).sum(axis=0, dtype=np.int64)
    np.testing.assert_array_equal(got, want)
    assert got.max() == k - 1


@pytest.mark.parametrize("field", ["n_states", "vocab_size"])
def test_hmm_corpus_refuses_ids_beyond_int16(field):
    """The corpus holds its ids as int16, so 32768 ids are the most a
    config may ask for; one more is refused by the field's name."""
    HmmCorpusConfig(**{field: 32768})
    with pytest.raises(FieldError) as e:
        HmmCorpusConfig(**{field: 32769})
    assert e.value.field == field and str(e.value) == f"{field} must be <= 32768"


def test_hmm_corpus_sampling_peak_memory():
    """At the CLI-default shape, the sampler's traced peak beyond its two
    outputs stays within two (vocab_size, n_sequences) float64 tables
    (1.11 MB): one step's gathered cdf columns and what counting them takes
    (0.86 MB here). search64's benchmark peak RSS is set during its set-up,
    which samples this corpus, so a sampler that built its outputs
    transposed and copied them would raise it: 1.19 MB beyond the outputs
    in int16, 4.5 MB in int64. numpy imports its random generators lazily, on
    the first `default_rng`, which traces about 0.78 MB; that import
    happens before tracing starts, so the peak is the same whether or not
    an earlier test sampled."""
    cfg = RunConfig().corpus()
    np.random.default_rng(0)
    tracemalloc.start()
    try:
        tokens, states = gen_hmm_corpus(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - tokens.nbytes - states.nbytes \
        <= 2 * cfg.vocab_size * cfg.n_sequences * 8


def test_make_sft_split():
    """One array of whole rows, split at prompt_len, that does not alias
    the corpus; a split without a prompt or a response is refused."""
    corpus = np.arange(20).reshape(2, 10)
    split = make_sft_split(corpus, 3)
    assert isinstance(split, SftSplit) and split.prompt_len == 3
    np.testing.assert_array_equal(split.tokens, corpus)
    corpus[0, 0] = 99
    assert split.tokens[0, 0] == 0
    for bad_len in (0, 10):
        with pytest.raises(ValueError):
            make_sft_split(corpus, bad_len)
    with pytest.raises(ValueError):
        make_sft_split(corpus[:0], 3)


def test_open_prefixes_skip_rows_ending_in_eos():
    corpus = np.array([[3, 0, 5], [4, 5, 0], [0, 6, 7], [1, 0, 0]])
    np.testing.assert_array_equal(open_prefixes(corpus, 2, 2, eos=0),
                                  [[4, 5], [0, 6]])
    with pytest.raises(ValueError, match="only 2 length-2"):
        open_prefixes(corpus, 3, 2, eos=0)
    with pytest.raises(ValueError, match="prefix length 4"):
        open_prefixes(corpus, 1, 4, eos=0)


def test_marker_reward():
    assert marker_reward([1, 2, 3], 2) == 1.0
    assert marker_reward([1, 2, 3], 9) == 0.0
    assert marker_reward([], 0) == 0.0


def test_scorer_scores_raising_and_non_finite_rewards_zero():
    """A reward_fn that raises or returns NaN or an infinity scores 0 and
    is counted in failures; a finite reward passes through uncounted."""
    rewards = {1: 0.75, 2: math.nan, 3: -math.inf, 4: math.inf}

    def reward_fn(tokens):
        if tokens[0] not in rewards:
            raise RuntimeError("scorer down")
        return rewards[tokens[0]]

    score = Scorer(reward_fn)
    assert [score([t]) for t in (1, 2, 3, 4, 9, 1)] == [0.75, 0, 0, 0, 0, 0.75]
    assert score.failures == 4
