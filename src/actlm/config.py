"""Configuration dataclasses shared across the package.

Each default is declared here once; `runconfig.RunConfig` is generated
from these classes."""

from __future__ import annotations

from dataclasses import dataclass, fields


class FieldError(ValueError):
    """A value a config class rejects, naming the field it was given for."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field = field
        self.rule = rule


def _require(cfg, rule: str, ok, *names: str) -> None:
    """Reject the first named field of cfg whose value fails ok."""
    for name in names:
        if not ok(getattr(cfg, name)):
            raise FieldError(name, rule)


@dataclass
class ArchConfig:
    """Shapes of the base model and every attached head.

    Desk-scale defaults: the 16-token vocabulary of the default
    hidden-Markov corpus, a 2-block base transformer, 8 latent action
    codes. Large-scale reference values (64 codes, deeper stacks) are
    reachable through the same fields.
    """

    vocab_size: int = 16
    d_model: int = 32
    n_heads: int = 2
    n_layers_base: int = 2
    n_layers_inverse: int = 1
    n_merge_mlps: int = 2
    n_layers_policy: int = 1
    codebook_size: int = 8
    max_seq_len: int = 64
    intermediate_dim: int = 64
    eos_token_id: int = 0

    def __post_init__(self):
        _require(self, "must be >= 1", lambda v: v >= 1,
                 *(f.name for f in fields(self) if f.name != "eos_token_id"))
        if self.d_model % self.n_heads != 0:
            raise FieldError("d_model", "must be divisible by n_heads")
        _require(self, "must be >= 2", lambda v: v >= 2, "codebook_size")
        _require(self, "must be in [0, vocab_size)",
                 lambda v: 0 <= v < self.vocab_size, "eos_token_id")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    steps: int = 500
    seed: int = 0
    beta: float = 0.001          # entropy-regularizer coefficient
    kl_coef: float = 0.01
    rl_group_size: int = 8
    gamma: float = 0.99
    tau: float = 1.0             # target-network mix on sync
    sync_interval: int = 100     # gradient steps between target syncs
    grad_clip_norm: float = 1.0
    weight_decay: float = 0.0
    gumbel_temp: float = 1.0

    def __post_init__(self):
        _require(self, "must be > 0", lambda v: v > 0,
                 "learning_rate", "grad_clip_norm", "gumbel_temp")
        _require(self, "must be >= 1", lambda v: v >= 1,
                 "batch_size", "sync_interval")
        # a leave-one-out baseline needs a sibling
        _require(self, "must be >= 2", lambda v: v >= 2, "rl_group_size")
        _require(self, "must be >= 0", lambda v: v >= 0,
                 "steps", "seed", "beta", "kl_coef", "weight_decay")
        _require(self, "must be in (0, 1]", lambda v: 0 < v <= 1, "gamma", "tau")


@dataclass
class SearchConfig:
    action_steps: int = 4        # k: actions per tree node
    iterations: int = 16         # search-iteration budget
    c_uct: float = 0.7
    bellman_threshold: float = 0.01
    expand_width: int = 4
    max_len: int = 64
    seed: int = 0

    def __post_init__(self):
        _require(self, "must be >= 1", lambda v: v >= 1,
                 "action_steps", "iterations", "expand_width")
        _require(self, "must be >= 0", lambda v: v >= 0,
                 "c_uct", "bellman_threshold", "seed")


@dataclass
class DiversityConfig:
    n_samples: int = 8           # stochastic continuations per prefix
    prefix_len: int = 8
    sim_floor: float = 1e-6
    include_prefix: bool = True  # similarity over the full sequences

    def __post_init__(self):
        _require(self, "must be >= 2", lambda v: v >= 2, "n_samples")
        _require(self, "must be > 0", lambda v: v > 0, "sim_floor")


@dataclass
class HmmCorpusConfig:
    n_states: int = 4
    vocab_size: int = 16
    transition_concentration: float = 0.3
    emission_concentration: float = 0.3
    seq_len: int = 64
    n_sequences: int = 4096
    seed: int = 0

    def __post_init__(self):
        _require(self, "must be >= 1", lambda v: v >= 1, "n_states", "seq_len")
        # gen_hmm_corpus writes ids into int16
        _require(self, "must be <= 32768", lambda v: v <= 32768,
                 "n_states", "vocab_size")
        _require(self, "must be > 0", lambda v: v > 0,
                 "transition_concentration", "emission_concentration")
        _require(self, "must be >= 0", lambda v: v >= 0, "seed")
