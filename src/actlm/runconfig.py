"""Flat key=value run configuration with command-line overrides.

Every field has a default; unknown keys are rejected by name. The flat
format keeps run configs diffable."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .config import ArchConfig, DiversityConfig, SearchConfig, TrainConfig


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    # architecture
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
    # training
    learning_rate: float = 1e-3
    batch_size: int = 16
    steps: int = 500
    seed: int = 0
    beta: float = 0.001
    kl_coef: float = 0.01
    rl_group_size: int = 8
    gamma: float = 0.99
    tau: float = 1.0
    sync_interval: int = 100
    grad_clip_norm: float = 1.0
    weight_decay: float = 0.0
    gumbel_temp: float = 1.0
    assignment: str = "direct"
    # search
    action_steps: int = 4
    iterations: int = 16
    c_uct: float = 0.7
    bellman_threshold: float = 0.01
    expand_width: int = 4
    search_max_len: int = 64
    # diversity
    n_samples: int = 8
    prefix_len: int = 8
    sim_floor: float = 1e-6
    include_prefix: bool = True
    # data (hidden-Markov corpus)
    hmm_states: int = 4
    hmm_transition_conc: float = 0.3
    hmm_emission_conc: float = 0.3
    hmm_seq_len: int = 64
    hmm_train_count: int = 4096
    hmm_val_count: int = 256
    hmm_seed: int = 0
    # task wiring
    prompt_len: int = 8
    rl_updates: int = 200
    rl_marker_token: int = -1     # -1: pick a reachable token automatically
    rl_prompt_count: int = 4
    rl_max_len: int = 16
    q_responses_per_prompt: int = 8
    sft_type: str = "FTA-I"
    rollout_mode: str = "greedy"
    prompt: str = ""              # comma-separated token ids
    eval_contexts: int = 64
    # files
    out_dir: str = "runs/out"
    init_checkpoint: str = ""

    def _component(self, cls, **renamed):
        """cls from the fields it shares with RunConfig by name, plus renamed."""
        shared = {f.name: getattr(self, f.name) for f in fields(cls)
                  if f.name in _FIELDS}
        return cls(**shared, **renamed)

    def arch(self) -> ArchConfig:
        return self._component(ArchConfig)

    def train(self) -> TrainConfig:
        return self._component(TrainConfig)

    def search(self) -> SearchConfig:
        return self._component(SearchConfig, max_len=self.search_max_len)

    def diversity(self) -> DiversityConfig:
        return self._component(DiversityConfig)


_FIELDS = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, raw: str):
    default = getattr(RunConfig(), key)
    if isinstance(default, bool):
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"invalid boolean for {key!r}: {raw!r}")
    for typ in (int, float, str):
        if isinstance(default, typ):
            try:
                return typ(raw)
            except ValueError:
                raise ConfigError(f"invalid {typ.__name__} for {key!r}: {raw!r}")
    raise ConfigError(f"unsupported field type for {key!r}")


def load_run_config(path=None, overrides=()) -> RunConfig:
    """Parse a key=value file, then apply --key value overrides."""
    values = {}
    if path:
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
                key, _, raw = stripped.partition("=")
                key, raw = key.strip(), raw.strip()
                if key not in _FIELDS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _convert(key, raw)
    overrides = list(overrides)
    i = 0
    while i < len(overrides):
        token = overrides[i]
        if not token.startswith("--"):
            raise ConfigError(f"expected --key, got {token!r}")
        key = token[2:]
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        if i + 1 >= len(overrides):
            raise ConfigError(f"missing value for {token!r}")
        values[key] = _convert(key, overrides[i + 1])
        i += 2
    return RunConfig(**values)
