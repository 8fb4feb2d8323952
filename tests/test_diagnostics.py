"""Diagnostics: bag-of-token similarity, action liveness, the marginal
decomposition KL against a hand-rolled oracle, and mutual information."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from actlm import actions, cli, diagnostics, model, training
from actlm import autodiff as ad
from actlm.actions import generate
from actlm.actions import policy_forward, world_logits
from actlm.autodiff import Tensor
from actlm.config import ArchConfig, DiversityConfig
from actlm.diagnostics import (action_token_table, alive_actions, marginal_kl,
                               normalized_mutual_information,
                               semantic_diversity, token_bags, val_loss,
                               write_action_token_tsv)
from actlm.metrics import MetricsWriter
from actlm.model import base_forward, base_logits, init_model
from actlm.runconfig import load_run_config
from actlm.training import inverse_action_labels, inverse_labels, sweep_rows
from conftest import StickyLM


CFG = ArchConfig(vocab_size=9, d_model=8, n_heads=2, max_seq_len=16,
                 intermediate_dim=16, codebook_size=4)


def test_token_bags_are_unit_norm():
    bags = token_bags([[1, 1, 2], [3]], vocab_size=5)
    np.testing.assert_allclose(np.linalg.norm(bags, axis=1), 1.0, rtol=1e-12)
    # counts: token 1 twice, token 2 once -> direction (0,2,1,0,0)/sqrt(5)
    np.testing.assert_allclose(bags[0], np.array([0, 2, 1, 0, 0]) / np.sqrt(5))


def test_alive_actions():
    assert alive_actions([0, 3, 0, 1]) == 2
    assert alive_actions(np.zeros(8)) == 0


def test_semantic_diversity_identical_continuations_floor_at_one():
    """A collapsed policy + deterministic decoding yields identical samples:
    similarity 1, diversity 1."""
    state = init_model(CFG, 0)
    # delta policy: one action always wins
    state.groups["policy"]["head"].data[...] = 0.0
    state.groups["policy"]["head"].data[:, 2] = 50.0
    cfg = DiversityConfig(n_samples=4, prefix_len=3)
    d = semantic_diversity(state, np.array([[1, 2, 3]]), cfg,
                           np.random.default_rng(0), max_len=8)
    assert d == pytest.approx(1.0, abs=1e-5)


def reference_semantic_diversity(state, prefixes, cfg: DiversityConfig, rng,
                                 max_len=None) -> float:
    """The per-prefix loop semantic_diversity replaced: one rollout batch of
    n_samples rows per prefix. Kept as the reference the one-batch version
    is checked against in distribution."""
    prefixes = np.asarray(prefixes)
    if max_len is None:
        max_len = state.cfg.max_seq_len
    sims = []
    for prefix in prefixes:
        batch = np.tile(prefix, (cfg.n_samples, 1))
        tokens, _ = diagnostics.rollout_batch(state, batch, "sample", max_len, rng)
        seqs = tokens if cfg.include_prefix else tokens[:, len(prefix):]
        bags = diagnostics.token_bags(list(seqs), state.cfg.vocab_size)
        gram = bags @ bags.T
        n = cfg.n_samples
        off_diag = gram.sum() - np.trace(gram)
        sims.append(off_diag / (n * (n - 1)))
    s = float(np.mean(sims))
    return 1.0 / max(s, cfg.sim_floor)


def test_one_batch_diversity_matches_per_prefix_loop_in_distribution(monkeypatch):
    """Over 400 seeds, rolling all prefixes out in one batch scores the same
    sequences in distribution as one batch per prefix, on StickyLM: for
    every prefix and every sequence a row of it was scored as, eos padding
    included, the share of that prefix's rows scored as that sequence
    agrees between the two. The prefixes stop at different lengths and one
    ends in eos, so a prefix whose rows are padded past where they would
    stop on their own shows up. Both give the same diversity on one
    prefix and one seed.

    Per cell the bound is Bernstein's inequality, as in the batched-search
    test: a difference of two means of N independent per-seed shares in
    [0, 1], so of differences in [-1, 1] with variance at most 1/2. z comes
    from a false-failure probability of 1e-3 for the whole test, split
    evenly (Bonferroni) over all cells."""
    monkeypatch.setattr(diagnostics, "rollout_batch",
                        lambda state, prompts, mode, max_len, rng:
                        generate(StickyLM(), np.array(prompts), mode, max_len, rng))
    scored = []
    bags = diagnostics.token_bags

    def recording_bags(seqs, vocab_size):
        scored.append([tuple(row.tolist()) for row in seqs])
        return bags(seqs, vocab_size)

    monkeypatch.setattr(diagnostics, "token_bags", recording_bags)
    state = SimpleNamespace(cfg=ArchConfig(vocab_size=5, max_seq_len=6))
    prefixes = np.array([[4, 4], [2, 1], [3, 0], [1, 3]])
    cfg = DiversityConfig(n_samples=3)
    n_seeds = 400
    shares = {}
    for name, fn in (("batched", semantic_diversity),
                     ("per-prefix", reference_semantic_diversity)):
        for seed in range(n_seeds):
            scored.clear()
            fn(state, prefixes, cfg, np.random.default_rng(seed), max_len=5)
            for i, rows in enumerate(scored):
                for row in set(rows):
                    key = (name, i, row)
                    shares[key] = shares.get(key, 0.0) + rows.count(row) / len(rows)
    cells = {key[1:] for key in shares}
    z = math.sqrt(2 * math.log(2 * len(cells) / 1e-3))
    bound = z * math.sqrt(0.5 / n_seeds) + z * z / (3 * n_seeds)
    for cell in cells:
        freqs = [shares.get((name, *cell), 0.0) / n_seeds
                 for name in ("batched", "per-prefix")]
        assert abs(freqs[0] - freqs[1]) <= bound, (cell, freqs)
    one = [fn(state, prefixes[:1], cfg, np.random.default_rng(7), max_len=5)
           for fn in (semantic_diversity, reference_semantic_diversity)]
    assert one[0] == one[1]


def test_semantic_diversity_hand_oracle_on_bags():
    """Cross-check the similarity arithmetic itself on two known bags."""
    bags = token_bags([[1, 2], [1, 3]], vocab_size=5)
    cos = float(bags[0] @ bags[1])
    assert cos == pytest.approx(0.5)


def test_marginal_kl_matches_brute_force_oracle():
    state = init_model(CFG, 3)
    contexts = np.random.default_rng(1).integers(0, 9, size=(16, 5))
    got = marginal_kl(state, contexts)

    # independent oracle: explicit per-context loops and raw softmax math
    def soft(z):
        e = np.exp(z - z.max())
        return e / e.sum()

    total = 0.0
    for ctx in contexts:
        e_l = base_forward(state.groups["base"], CFG, ctx[None])
        logits = base_logits(state.groups["base"], e_l)
        p = soft(logits.data[0, -1])
        pi = policy_forward(state.groups["policy"], CFG, e_l).data[0, -1]
        mix = np.zeros_like(p)
        for i in range(CFG.codebook_size):
            code = state.groups["codebook"]["codes"].data[i][None, None]
            wl = world_logits(state.groups["merge"], CFG,
                              ad.slice_time(e_l, 4, None), Tensor(code))
            mix += pi[i] * soft(wl.data[0, -1])
        total += float((p * (np.log(p) - np.log(mix))).sum())
    assert got == pytest.approx(total / len(contexts), abs=1e-9)


def test_marginal_kl_delta_policy_identity_is_zero():
    """Uniform base head + zero merge output + delta policy: both sides are
    uniform, KL is exactly 0."""
    state = init_model(CFG, 0)
    state.groups["base"]["lm_head"].data[...] = 0.0
    for k in state.groups["merge"]:
        state.groups["merge"][k].data[...] = 0.0
    state.groups["policy"]["head"].data[...] = 0.0
    state.groups["policy"]["head"].data[:, 1] = 60.0
    contexts = np.random.default_rng(0).integers(0, 9, size=(8, 4))
    assert marginal_kl(state, contexts) == pytest.approx(0.0, abs=1e-12)


def test_val_loss_rejects_unknown_mode():
    state = init_model(CFG, 0)
    corpus = np.random.default_rng(0).integers(0, 9, size=(6, 7))
    with pytest.raises(ValueError, match="nonsense"):
        val_loss(state, corpus, "nonsense")


def test_val_loss_with_actions_matches_separate_label_forward():
    """The labels come from the embeddings val_loss already has; the figure
    equals that of labels from a second base forward, bit for bit."""
    state = init_model(CFG, 3)
    corpus = np.random.default_rng(3).integers(0, 9, size=(sweep_rows(7), 7))
    e_l = base_forward(state.groups["base"], CFG, corpus)
    action = ad.embedding(state.groups["codebook"]["codes"],
                          inverse_action_labels(state, corpus, 0.5))
    logits = world_logits(state.groups["merge"], CFG,
                          ad.slice_time(e_l, 0, -1), action)
    ce = ad.cross_entropy(logits, corpus[:, 1:])
    state.sweep = None
    assert val_loss(state, corpus, "with_actions",
                    gumbel_temp=0.5) == float(ce.data.sum()) / ce.data.size


def per_chunk_reference(state, corpus, gumbel_temp):
    """Every sweep reader recomputed the way the readers did before they
    shared a sweep: each sweep_rows(T)-row chunk gets a base forward of its
    own for the CEs, and another one for its labels."""
    cfg, base = state.cfg, state.groups["base"]
    table = np.zeros((cfg.codebook_size, cfg.vocab_size), dtype=np.int64)
    labels, act, plain, count = [], 0.0, 0.0, 0
    rows = sweep_rows(corpus.shape[1])
    for i in range(0, len(corpus), rows):
        chunk = corpus[i:i + rows]
        e_l = base_forward(base, cfg, chunk)
        chunk_labels = inverse_labels(state, base_forward(base, cfg, chunk),
                                      gumbel_temp)
        labels.append(chunk_labels)
        np.add.at(table, (chunk_labels.reshape(-1), chunk[:, 1:].reshape(-1)), 1)
        action = ad.embedding(state.groups["codebook"]["codes"], chunk_labels)
        logits = world_logits(state.groups["merge"], cfg,
                              ad.slice_time(e_l, 0, -1), action)
        act += float(ad.cross_entropy(logits, chunk[:, 1:]).data.sum())
        ce = ad.cross_entropy(ad.slice_time(base_logits(base, e_l), 0, -1),
                              chunk[:, 1:])
        plain += float(ce.data.sum())
        count += ce.data.size
    return {"with_actions": act / count, "base_ar": plain / count,
            "table": table, "labels": np.concatenate(labels)}


SWEEP_READERS = {
    "with_actions": lambda state, corpus: val_loss(state, corpus, "with_actions",
                                                   gumbel_temp=0.5),
    "base_ar": lambda state, corpus: val_loss(state, corpus, "base_ar"),
    "table": lambda state, corpus: action_token_table(state, corpus,
                                                      gumbel_temp=0.5),
    "labels": lambda state, corpus: inverse_action_labels(state, corpus, 0.5),
}


@pytest.mark.parametrize("first", SWEEP_READERS)
def test_sweep_readers_match_per_chunk_recompute(first):
    """On a corpus of two chunks, the last one ragged, each reader of the
    shared sweep equals the per-chunk recompute bit for bit: first on a
    cold slot, then every reader on the slot the first one filled."""
    state = init_model(CFG, 5)
    corpus = np.random.default_rng(5).integers(0, 9, size=(sweep_rows(7) + 6, 7))
    want = per_chunk_reference(state, corpus, 0.5)
    assert state.sweep is None
    assert np.array_equal(SWEEP_READERS[first](state, corpus), want[first])
    warm = state.sweep
    for name, read in SWEEP_READERS.items():
        assert np.array_equal(read(state, corpus), want[name]), name
    assert state.sweep is warm


def test_eval_report_encodes_each_val_chunk_once(tmp_path, monkeypatch):
    """Over cmd_eval's calls, the base forward sees each sweep_rows(T)-row
    chunk of the val corpus once (the table, the labels and both CEs share
    one sweep); only shorter contexts and decode steps come on top. The
    chunks may be encoded in any order, so the full-width calls are
    compared with them as a multiset of row blocks."""
    rows = sweep_rows(12)
    cfg = load_run_config(None, [
        "--hmm_train_count", "16", "--hmm_val_count", str(rows + 6),
        "--hmm_seq_len", "12", "--max_seq_len", "16", "--search_max_len", "16",
        "--eval_contexts", "4", "--prompt_len", "5", "--prefix_len", "5",
        "--rl_max_len", "8", "--n_samples", "2"])
    _, val, _ = cli._corpora(cfg)
    monkeypatch.setattr(cli, "_load_input",
                        lambda cfg: (init_model(cfg.arch(), 0), {}))
    encoded = []
    for module in (model, training, diagnostics, actions):
        real = module.base_forward

        def counting(p, arch, tokens, *args, real=real, **kwargs):
            encoded.append(np.array(tokens))
            return real(p, arch, tokens, *args, **kwargs)

        monkeypatch.setattr(module, "base_forward", counting)
    with MetricsWriter(str(tmp_path / "metrics.jsonl"), "w") as metrics:
        assert cli.cmd_eval(cfg, str(tmp_path), metrics) == 0
    full_width = [t for t in encoded if t.shape[1] == val.shape[1]]
    chunks = [val[:rows], val[rows:]]
    assert [len(c) for c in chunks] == [rows, 6]
    assert np.array_equal(np.concatenate(chunks), val)

    def blocks(arrays):
        return sorted((a.shape, a.dtype.str, a.tobytes()) for a in arrays)

    assert blocks(full_width) == blocks(chunks)


def test_action_token_table_counts(tmp_path):
    state = init_model(CFG, 0)
    corpus = np.random.default_rng(0).integers(0, 9, size=(5, 7))
    table = action_token_table(state, corpus)
    assert table.shape == (4, 9)
    assert table.sum() == 5 * 6  # one count per predictable position
    path = tmp_path / "table.tsv"
    write_action_token_tsv(path, table)
    lines = path.read_text().splitlines()
    assert lines[0] == "action_index\ttoken_id\tcount"
    assert sum(int(l.split("\t")[2]) for l in lines[1:]) == 30


def test_nmi_perfect_and_independent():
    perfect = np.diag([10, 20, 30])
    assert normalized_mutual_information(perfect) == pytest.approx(1.0)
    independent = np.outer([1, 1], [1, 1]) * 25
    assert normalized_mutual_information(independent) == pytest.approx(0.0, abs=1e-12)
    degenerate = np.zeros((3, 3)); degenerate[1, :] = 5  # one row only
    assert normalized_mutual_information(degenerate) == 0.0
    assert normalized_mutual_information(np.zeros((2, 2))) == 0.0
