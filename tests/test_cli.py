"""Run configuration parsing and command-line driver behavior."""

import hashlib
import json
import os
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest

from actlm import cli, runconfig
from actlm.checkpoint import FORMAT_VERSION, MAGIC
from actlm.cli import main
from actlm.config import (ArchConfig, DiversityConfig, HmmCorpusConfig,
                          SearchConfig, TrainConfig)
from actlm.metrics import MetricsWriter, read_metrics
from actlm.model import init_model
from actlm.runconfig import ConfigError, RunConfig, load_run_config

from conftest import v1_checkpoint_body


TINY = ["--steps", "3", "--batch_size", "4", "--hmm_train_count", "16",
        "--hmm_val_count", "4", "--hmm_seq_len", "10", "--max_seq_len", "16"]


def test_defaults_load_without_file():
    cfg = load_run_config()
    assert cfg == RunConfig()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nsteps = 7\nlearning_rate=0.5\nout_dir=x\n")
    cfg = load_run_config(path)
    assert cfg.steps == 7 and cfg.learning_rate == 0.5 and cfg.out_dir == "x"


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("stepz=7\n")
    with pytest.raises(ConfigError, match="stepz"):
        load_run_config(path)
    with pytest.raises(ConfigError, match="stepz"):
        load_run_config(None, ["--stepz", "7"])


def test_bad_values_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps=abc\n")
    with pytest.raises(ConfigError, match="steps"):
        load_run_config(path)
    with pytest.raises(ConfigError, match="include_prefix"):
        load_run_config(None, ["--include_prefix", "maybe"])
    with pytest.raises(ConfigError, match="missing value"):
        load_run_config(None, ["--steps"])
    path.write_text("just a line\n")
    with pytest.raises(ConfigError, match="key=value"):
        load_run_config(path)


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("steps=7\n")
    cfg = load_run_config(path, ["--steps", "9", "--include_prefix", "false"])
    assert cfg.steps == 9 and cfg.include_prefix is False


def test_metrics_writer(tmp_path):
    path = tmp_path / "m.jsonl"
    with MetricsWriter(path) as w:
        w.append({"step": 0, "loss": 1.5})
        with pytest.raises(ValueError):
            w.append({})
    assert read_metrics(path) == [{"step": 0, "loss": 1.5}]


def test_cli_rejects_unknown_key(capsys):
    assert main(["pretrain-base", "--stepz", "1"]) == 1
    assert "stepz" in capsys.readouterr().err


def test_cli_missing_checkpoint_fails(tmp_path, capsys):
    rc = main(["bc-policy", "--out_dir", str(tmp_path)] + TINY)
    assert rc == 1


def test_cli_pretrain_base_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(["pretrain-base", "--out_dir", str(out)] + TINY) == 0
    assert (out / "base.ckpt").exists()
    records = read_metrics(out / "metrics.jsonl")
    assert records[-1]["event"] == "final"
    assert all(r["stage"] == "pretrain-base" for r in records)


def test_cli_env_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTLM_OUT_ROOT", str(tmp_path))
    assert main(["pretrain-base", "--out_dir", "sub"] + TINY) == 0
    assert (tmp_path / "sub" / "base.ckpt").exists()


def test_cli_stage_chain_and_input_immutability(tmp_path):
    out = tmp_path / "run"
    assert main(["pretrain-base", "--out_dir", str(out)] + TINY) == 0
    base = out / "base.ckpt"
    before = base.read_bytes()
    common = ["--out_dir", str(out), "--init_checkpoint", str(base)] + TINY
    assert main(["pretrain-actions"] + common) == 0
    assert base.read_bytes() == before
    assert (out / "stage1.ckpt").exists()
    assert main(["eval", "--prompt_len", "4", "--eval_contexts", "2",
                 "--n_samples", "2", "--search_max_len", "12",
                 "--init_checkpoint", str(out / "stage1.ckpt"),
                 "--out_dir", str(out)] + TINY) == 0
    report = json.loads((out / "eval.json").read_text())
    assert {"val_ce_with_actions", "val_ce_base_ar", "marginal_kl",
            "semantic_diversity", "alive_actions", "action_state_nmi"} <= set(report)


def test_default_prompts_skip_prefixes_ending_in_eos():
    """The default prompt settings take the first val prefixes that do not
    end in eos; at this corpus seed the plain slice holds one that does."""
    cfg = RunConfig(hmm_train_count=1, hmm_val_count=15, hmm_seq_len=16,
                    hmm_seed=1)
    _, val, _ = cli._corpora(cfg)
    eos = cfg.eos_token_id
    assert (val[:cfg.rl_prompt_count, cfg.prompt_len - 1] == eos).any()
    prompts = cli._prompts(cfg, val, eos)
    assert prompts.shape == (cfg.rl_prompt_count, cfg.prompt_len)
    assert not (prompts[:, -1] == eos).any()
    assert cli._prompt_tokens(cfg, val, cfg.arch())[-1] != eos
    with pytest.raises(ValueError, match="prompts needed"):
        cli._prompts(RunConfig(rl_prompt_count=16), val, eos)


def test_cli_forged_checkpoint_fails_by_name(tmp_path, capsys):
    """A body with a valid digest but an empty header is refused with exit
    code 1 and an error line, not a traceback."""
    body = MAGIC + struct.pack("<II", FORMAT_VERSION, 2) + b"{}" + struct.pack("<I", 0)
    forged = tmp_path / "forged.ckpt"
    forged.write_bytes(body + hashlib.sha256(body).digest())
    rc = main(["bc-policy", "--out_dir", str(tmp_path / "run"),
               "--init_checkpoint", str(forged)] + TINY)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: malformed checkpoint")


def test_cli_oversized_architecture_fails_by_name(tmp_path, capsys, monkeypatch):
    """A sealed checkpoint whose header names 10^6 base layers over the body
    of a small model exits 1 by the field's name, building no layout."""
    from actlm import checkpoint

    def no_layout(*args):
        raise AssertionError("group_layout called")

    monkeypatch.setattr(checkpoint, "group_layout", no_layout)
    header = json.dumps({"arch": {**asdict(ArchConfig()), "n_layers_base": 10**6},
                         "dtype": "<f4", "stage": "", "step": 0}).encode()
    body = (MAGIC + struct.pack("<II", FORMAT_VERSION, len(header)) + header
            + bytes(4 * 1000))
    forged = tmp_path / "forged.ckpt"
    forged.write_bytes(body + hashlib.sha256(body).digest())
    rc = main(["bc-policy", "--out_dir", str(tmp_path / "run"),
               "--init_checkpoint", str(forged)] + TINY)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: checkpoint holds 4000 bytes of parameters, too few for its "
        "architecture field n_layers_base = 1000000")


def test_cli_v1_checkpoint_fails_by_version(tmp_path, capsys):
    body = v1_checkpoint_body(init_model(ArchConfig(), 0))
    old = tmp_path / "v1.ckpt"
    old.write_bytes(body + hashlib.sha256(body).digest())
    rc = main(["bc-policy", "--out_dir", str(tmp_path / "run"),
               "--init_checkpoint", str(old)] + TINY)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: checkpoint format version 1")


@pytest.mark.parametrize("case", ["checkpoint-is-dir", "config-is-dir",
                                  "out-dir-under-file"])
def test_cli_os_errors_fail_by_name(tmp_path, capsys, case):
    """A path that names the wrong kind of file fails with exit code 1 and
    an error line naming it, not a traceback."""
    plain = tmp_path / "plain"
    plain.write_text("")
    args, path = {
        "checkpoint-is-dir": (["--out_dir", str(tmp_path / "run"),
                               "--init_checkpoint", str(tmp_path)], tmp_path),
        "config-is-dir": (["--config", str(tmp_path)], tmp_path),
        "out-dir-under-file": (["--out_dir", str(plain / "run")], plain / "run"),
    }[case]
    assert main(["bc-policy"] + args + TINY) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_every_default_has_one_source():
    """RunConfig takes every component default from the component itself,
    and a flat key that two components declare has one default."""
    cfg = RunConfig()
    assert cfg.arch() == ArchConfig()
    assert cfg.train() == TrainConfig()
    assert cfg.search() == SearchConfig()
    assert cfg.diversity() == DiversityConfig()
    assert cfg.corpus() == HmmCorpusConfig(
        n_sequences=cfg.hmm_train_count + cfg.hmm_val_count)
    defaults = {}
    for cls in runconfig._COMPONENTS:
        for f, key in runconfig._keyed(cls):
            defaults.setdefault(key, []).append(f.default)
    shared = {key: values for key, values in defaults.items() if len(values) > 1}
    assert set(shared) == {"vocab_size", "seed"}
    for key, values in shared.items():
        assert len(set(values)) == 1, key
        assert getattr(cfg, key) == values[0]
    assert set(defaults) <= {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("key,value", [
    ("gamma", "2"), ("n_heads", "3"), ("c_uct", "-1"), ("n_samples", "1"),
    ("batch_size", "0"), ("learning_rate", "0"), ("expand_width", "0"),
    ("hmm_train_count", "0"), ("hmm_val_count", "0"), ("hmm_seq_len", "1"),
    ("rl_max_len", "8"), ("gumbel_temp", "0"), ("sync_interval", "0"),
    ("rl_group_size", "1"), ("kl_coef", "-1"), ("weight_decay", "-5"),
    ("steps", "-1"), ("seed", "-1"), ("prompt_len", "0"),
    ("assignment", "foo"), ("sft_type", "FTA-X")])
def test_component_rejections_fail_at_load(key, value):
    """Every component is built when the config is, so a value one rejects
    fails whichever subcommand would read it; so do a one-token corpus row,
    an rl_max_len that leaves the default prompt_len no decision, an
    empty prompt, and an assignment or sft_type no driver knows. A
    leave-one-out group needs two rollouts, a target sync a positive
    interval, the Gumbel softmax a positive temperature, and a step count
    and a seed must not be negative."""
    with pytest.raises(ConfigError, match=key):
        load_run_config(None, [f"--{key}", value])
    with pytest.raises(ConfigError, match=key):
        RunConfig(**{key: type(getattr(RunConfig(), key))(value)})


def test_prompt_len_beyond_the_corpus_rows_fails_at_load():
    """A prompt is a corpus prefix, so a prompt_len longer than hmm_seq_len
    is refused by name rather than scoring whole rows as contexts. The
    rl_max_len flag keeps the rl_max_len bound, whose message also names
    prompt_len, out of the way; a prompt as long as a row is accepted."""
    with pytest.raises(ConfigError) as e:
        load_run_config(None, ["--prompt_len", "70", "--rl_max_len", "80"])
    assert str(e.value).startswith("prompt_len 70 exceeds hmm_seq_len 64")
    load_run_config(None, ["--prompt_len", "64", "--rl_max_len", "80"])


# an out-of-range value for each renamed key that has a bound
RENAMED_BAD = {"hmm_states": "0", "hmm_transition_conc": "0",
               "hmm_emission_conc": "-1", "hmm_seq_len": "0", "hmm_seed": "-1"}
UNBOUNDED = {"search_max_len"}


def test_renamed_field_errors_name_the_flat_key():
    """A value a component rejects under a renamed field is reported by
    the flat key the user typed, not by the component's field name."""
    renamed = {key: name for table in runconfig._RENAMED.values()
               for name, key in table.items() if key is not None}
    assert set(renamed) == set(RENAMED_BAD) | UNBOUNDED
    for key, value in RENAMED_BAD.items():
        with pytest.raises(ConfigError) as e:
            load_run_config(None, [f"--{key}", value])
        assert str(e.value).startswith(f"{key} must be")


def test_cli_empty_corpus_split_fails_by_name(tmp_path, capsys):
    for key in ("hmm_train_count", "hmm_val_count", "hmm_seq_len"):
        rc = main(["pretrain-base", "--out_dir", str(tmp_path)] + TINY
                  + [f"--{key}", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be >= 1")


@pytest.mark.parametrize("key", ["hmm_states", "vocab_size"])
def test_cli_ids_beyond_int16_fail_by_name(tmp_path, capsys, key):
    """The corpus is sampled into int16, so more than 32768 states or
    tokens exit 1 naming the key, before anything is written."""
    rc = main(["pretrain-base", "--out_dir", str(tmp_path)] + TINY
              + [f"--{key}", "32769"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be <= 32768")
    assert not (tmp_path / "base.ckpt").exists()


def test_cli_out_of_range_value_fails_by_name(tmp_path, capsys):
    assert main(["search-q", "--gamma", "2", "--out_dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: gamma")


def test_cli_checkpoint_architecture_wins(tmp_path, capsys):
    """A checkpoint trained with 16 codes is read with 16 codes by commands
    that do not repeat --codebook_size."""
    out = tmp_path / "run"
    assert main(["pretrain-base", "--codebook_size", "16",
                 "--out_dir", str(out)] + TINY) == 0
    common = ["--init_checkpoint", str(out / "base.ckpt"),
              "--out_dir", str(out)] + TINY
    assert main(["pretrain-actions"] + common) == 0
    assert capsys.readouterr().out.rstrip().endswith("/16")
    assert main(["eval", "--prompt_len", "4", "--eval_contexts", "2",
                 "--n_samples", "2", "--search_max_len", "12"] + common) == 0
    rows = (out / "action_tokens.tsv").read_text().splitlines()[1:]
    codes = {int(row.split("\t")[0]) for row in rows}
    assert max(codes) >= 8 and max(codes) < 16
    report = json.loads((out / "eval.json").read_text())
    assert report["alive_actions"] == len(codes)


def test_cli_corpus_vocab_beyond_checkpoint_fails_by_name(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["pretrain-base", "--vocab_size", "8",
                 "--out_dir", str(out)] + TINY) == 0
    rc = main(["eval", "--init_checkpoint", str(out / "base.ckpt"),
               "--out_dir", str(out)] + TINY)
    assert rc == 1
    assert "vocab_size" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    assert main(["pretrain-base", "--out_dir", str(out)] + TINY) == 0
    return out / "base.ckpt"


def run_beyond_max_seq_len(checkpoint, subcommand, key, capsys) -> str:
    rc = main([subcommand, "--init_checkpoint", str(checkpoint),
               "--out_dir", str(checkpoint.parent), f"--{key}", "32"] + TINY)
    assert rc == 1
    return capsys.readouterr().err


@pytest.mark.parametrize("subcommand,key,value", [
    ("eval", "eval_contexts", "0"), ("eval", "eval_contexts", "-3"),
    ("rl", "rl_prompt_count", "0"), ("rl", "rl_prompt_count", "-1"),
    ("rl", "rl_updates", "0"), ("train-q", "q_responses_per_prompt", "0"),
    ("eval", "prompt_len", "0")])
def test_cli_count_below_one_fails_by_name(tiny_checkpoint, tmp_path, capsys,
                                           subcommand, key, value):
    """A run-level count below 1 exits 1 naming its key before any work:
    eval would report a NaN marginal_kl over no contexts (or drop the last
    three contexts at -3) and die on an IndexError over empty prompts, and
    rl would die on an IndexError at 0 or silently drop prompts at -1."""
    rc = main([subcommand, "--init_checkpoint", str(tiny_checkpoint),
               "--out_dir", str(tmp_path), "--search_max_len", "12",
               "--prompt_len", "4", "--eval_contexts", "2",
               f"--{key}", value] + TINY)
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be >= 1")
    assert not (tmp_path / "eval.json").exists()


def test_cli_eval_contexts_beyond_val_rows_fails_by_name(tiny_checkpoint, tmp_path,
                                                         capsys, monkeypatch):
    """eval scores marginal_kl on the first eval_contexts val rows, so more
    than hmm_val_count (4) exits 1 naming the key before the corpus is
    sampled, rather than scoring the rows that exist."""
    sampled, real = [], cli.gen_hmm_corpus
    monkeypatch.setattr(cli, "gen_hmm_corpus",
                        lambda cfg: sampled.append(cfg) or real(cfg))
    rc = main(["eval", "--init_checkpoint", str(tiny_checkpoint),
               "--out_dir", str(tmp_path), "--search_max_len", "12",
               "--prompt_len", "4", "--eval_contexts", "5"] + TINY)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: eval_contexts 5 exceeds hmm_val_count 4")
    assert sampled == [] and not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("prefix_len", ["8", "9"])
def test_cli_eval_prefix_len_leaving_nothing_to_generate_fails(tiny_checkpoint, tmp_path,
                                                              capsys, prefix_len):
    """eval's semantic diversity generates from prefix_len-token prefixes up
    to search_max_len tokens, so a prefix_len of search_max_len (8) or more
    exits 1 naming both keys, rather than scoring rollouts that generated
    nothing."""
    rc = main(["eval", "--init_checkpoint", str(tiny_checkpoint),
               "--out_dir", str(tmp_path), "--search_max_len", "8",
               "--prompt_len", "4", "--eval_contexts", "2",
               "--prefix_len", prefix_len] + TINY)
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: prefix_len {prefix_len} leaves nothing to generate within "
        "search_max_len 8")
    assert not (tmp_path / "eval.json").exists()


def test_cli_search_max_len_beyond_checkpoint_fails_by_name(tiny_checkpoint,
                                                            capsys):
    """Every subcommand that decodes to search_max_len refuses one the
    checkpoint's max_seq_len (16) cannot hold, naming the key, before it
    starts decoding."""
    for subcommand in ("rollout", "search", "search-q", "eval"):
        err = run_beyond_max_seq_len(tiny_checkpoint, subcommand,
                                     "search_max_len", capsys)
        assert err.startswith("error: search_max_len 32 exceeds the "
                              "checkpoint's max_seq_len 16"), subcommand


def test_cli_rl_max_len_beyond_checkpoint_fails_by_name(tiny_checkpoint,
                                                        capsys):
    for subcommand in ("rl", "train-q"):
        err = run_beyond_max_seq_len(tiny_checkpoint, subcommand,
                                     "rl_max_len", capsys)
        assert err.startswith("error: rl_max_len 32 exceeds the "
                              "checkpoint's max_seq_len 16"), subcommand


def test_cli_hmm_seq_len_beyond_max_seq_len_fails_by_name(tiny_checkpoint,
                                                         tmp_path, capsys,
                                                         monkeypatch):
    """A corpus whose whole rows the model cannot hold is refused by name
    before it is sampled: against the run config's max_seq_len (16) when
    pretrain-base builds the model, against the checkpoint's by every
    subcommand that reads whole rows. Subcommands that read only prefixes
    still accept it."""
    def refuse(cfg):
        raise AssertionError("corpus sampled")

    def run(subcommand, *extra):
        return main([subcommand, "--init_checkpoint", str(tiny_checkpoint),
                     "--out_dir", str(tmp_path)] + TINY
                    + ["--hmm_seq_len", "32", *extra])

    with monkeypatch.context() as m:
        m.setattr(cli, "gen_hmm_corpus", refuse)
        assert run("pretrain-base") == 1
        assert capsys.readouterr().err.startswith(
            "error: hmm_seq_len 32 exceeds max_seq_len 16")
        for subcommand in ("pretrain-actions", "bc-policy", "fta", "eval"):
            assert run(subcommand, "--search_max_len", "12") == 1
            assert capsys.readouterr().err.startswith(
                "error: hmm_seq_len 32 exceeds the checkpoint's "
                "max_seq_len 16"), subcommand
    assert run("rollout", "--search_max_len", "12", "--prompt_len", "4") == 0


@pytest.mark.parametrize("prompt, message", [
    ("3,x", "prompt '3,x' is not comma-separated integer token ids"),
    ("3,,4", "prompt '3,,4' is not comma-separated integer token ids"),
    ("3,16", "prompt token 16 is outside the checkpoint's vocabulary [0, 16)"),
    ("3,-1", "prompt token -1 is outside the checkpoint's vocabulary [0, 16)"),
    (",".join(["3"] * 17), "prompt length 17 exceeds the checkpoint's "
                           "max_seq_len 16"),
], ids=["non-integer", "empty-entry", "beyond-vocab", "negative", "too-long"])
def test_cli_bad_prompt_fails_by_name(tiny_checkpoint, capsys, prompt, message):
    """--prompt is checked against the loaded checkpoint before any decode:
    a non-integer or empty entry, an id outside its vocabulary or a prompt
    longer than its max_seq_len exits 1 naming the key."""
    for subcommand in ("rollout", "search"):
        rc = main([subcommand, "--init_checkpoint", str(tiny_checkpoint),
                   "--out_dir", str(tiny_checkpoint.parent), "--prompt", prompt,
                   "--search_max_len", "16"] + TINY)
        assert rc == 1
        assert capsys.readouterr().err.strip() == f"error: {message}", subcommand


@pytest.mark.parametrize("flags, message", [
    (["--prompt", ",".join(["3"] * 8), "--search_max_len", "8"],
     "prompt length 8 leaves nothing to generate within search_max_len 8"),
    (["--prompt_len", "9", "--search_max_len", "9", "--rl_max_len", "10"],
     "prompt_len 9 leaves nothing to generate within search_max_len 9"),
], ids=["prompt", "prompt_len"])
def test_cli_prompt_filling_search_max_len_fails_by_name(tiny_checkpoint, capsys,
                                                         flags, message):
    """A prompt, given or the default val prefix, as long as search_max_len
    would generate nothing: every subcommand that decodes from it exits 1
    naming both keys."""
    for subcommand in ("rollout", "search", "search-q"):
        rc = main([subcommand, "--init_checkpoint", str(tiny_checkpoint),
                   "--out_dir", str(tiny_checkpoint.parent)] + TINY + flags)
        assert rc == 1
        assert capsys.readouterr().err.strip() == f"error: {message}", subcommand


def test_cli_prompt_ending_in_eos_fails_by_name(tiny_checkpoint, capsys):
    """A --prompt that ends in eos is finished before it starts: every
    subcommand that decodes from it exits 1 naming prompt and eos, instead
    of exiting 0 with nothing generated."""
    for subcommand in ("rollout", "search", "search-q"):
        rc = main([subcommand, "--init_checkpoint", str(tiny_checkpoint),
                   "--out_dir", str(tiny_checkpoint.parent), "--prompt", "3,0",
                   "--search_max_len", "16"] + TINY)
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            "error: prompt ends in the eos token 0, so nothing would be "
            "generated"), subcommand


def test_cli_search_scores_the_response_only(tiny_checkpoint, monkeypatch):
    """search's reward sees only what follows the prompt, as rl and
    train-q score it: a prompt that already holds the marker scores 0
    until the response holds it too."""
    rewards = []

    def capture(model, prompt, cfg, reward_fn, **kwargs):
        rewards.append(reward_fn)
        return real(model, prompt, cfg, reward_fn, **kwargs)

    real = cli.mcts_search
    monkeypatch.setattr(cli, "mcts_search", capture)
    assert main(["search", "--init_checkpoint", str(tiny_checkpoint),
                 "--out_dir", str(tiny_checkpoint.parent), "--prompt", "3,5",
                 "--rl_marker_token", "5", "--search_max_len", "16",
                 "--iterations", "2"] + TINY) == 0
    (reward,) = rewards
    assert reward(np.array([3, 5])) == 0.0
    assert reward(np.array([3, 5, 5])) == 1.0
