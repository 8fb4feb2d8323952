"""Configuration dataclasses shared across the package.

Each default is declared here once; `runconfig.RunConfig` is generated
from these classes."""

from __future__ import annotations

from dataclasses import dataclass, fields


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
        for f in fields(self):
            if f.name != "eos_token_id" and getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.codebook_size < 2:
            raise ValueError("codebook_size must be >= 2")
        if not 0 <= self.eos_token_id < self.vocab_size:
            raise ValueError("eos_token_id out of range")


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
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if not 0 < self.tau <= 1:
            raise ValueError("tau must be in (0, 1]")
        if self.grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be > 0")


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
        if self.action_steps < 1 or self.iterations < 1:
            raise ValueError("action_steps and iterations must be >= 1")
        if self.c_uct < 0 or self.bellman_threshold < 0:
            raise ValueError("c_uct and bellman_threshold must be >= 0")


@dataclass
class DiversityConfig:
    n_samples: int = 8           # stochastic continuations per prefix
    prefix_len: int = 8
    sim_floor: float = 1e-6
    include_prefix: bool = True  # similarity over the full sequences

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if self.sim_floor <= 0:
            raise ValueError("sim_floor must be > 0")


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
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        if self.transition_concentration <= 0 or self.emission_concentration <= 0:
            raise ValueError("concentrations must be > 0")
