"""Flat key=value run configuration with command-line overrides.

RunConfig is generated from the component dataclasses in `config.py`, so
each default is declared once: every component field is one flat key,
named as in `_RENAMED` or else by the field itself, and a name that two
components share (`vocab_size`, `seed`) is one key. Only the keys that
exist at run level alone are declared here. Every field has a default;
unknown keys are rejected by name, and a value that a component rejects
fails as a ConfigError naming its flat key when the RunConfig is built. The flat format keeps
run configs diffable."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass

from .config import (ASSIGNMENTS, SFT_TYPES, ArchConfig, DiversityConfig,
                     FieldError, HmmCorpusConfig, SearchConfig, TrainConfig)


class ConfigError(Exception):
    pass


# The flat key of each component field that is not keyed by its own name;
# None marks a field that run-level keys determine.
_RENAMED = {
    SearchConfig: {"max_len": "search_max_len"},
    HmmCorpusConfig: {"n_states": "hmm_states",
                      "transition_concentration": "hmm_transition_conc",
                      "emission_concentration": "hmm_emission_conc",
                      "seq_len": "hmm_seq_len", "seed": "hmm_seed",
                      "n_sequences": None},
}
_COMPONENTS = (ArchConfig, TrainConfig, SearchConfig, DiversityConfig,
               HmmCorpusConfig)


def _keyed(cls) -> list[tuple]:
    """(field, flat key) over the keyed fields of a component."""
    renamed = _RENAMED.get(cls, {})
    return [(f, key) for f in fields(cls)
            if (key := renamed.get(f.name, f.name)) is not None]


def _component_fields() -> list[tuple]:
    """make_dataclass specs, one per flat key, each with the default of the
    first component that declares the key."""
    specs = {}
    for cls in _COMPONENTS:
        for f, key in _keyed(cls):
            specs.setdefault(key, (key, f.type, field(default=f.default)))
    return list(specs.values())


@dataclass
class RunConfig(make_dataclass("ComponentKeys", _component_fields())):
    """Every component key, plus the keys below that exist at run level
    only."""
    assignment: str = "direct"
    # corpus split: the corpus holds hmm_train_count + hmm_val_count rows
    hmm_train_count: int = 4096
    hmm_val_count: int = 256
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

    def __post_init__(self):
        """Check the corpus split, run-level counts and choices, then build
        every component once, so a value that one of them rejects fails
        here, whichever subcommand reads it, naming the flat key; then the
        bounds between keys. A prompt is a corpus prefix, so prompt_len
        lies in 1..hmm_seq_len."""
        for key in ("hmm_train_count", "hmm_val_count", "eval_contexts",
                    "rl_prompt_count", "rl_updates", "q_responses_per_prompt"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key, names in (("assignment", ASSIGNMENTS), ("sft_type", SFT_TYPES)):
            if getattr(self, key) not in names:
                raise ConfigError(f"{key} must be one of {', '.join(names)}")
        for cls in _COMPONENTS:
            try:
                self._component(cls)
            except FieldError as e:
                flat = {f.name: key for f, key in _keyed(cls)}.get(e.field)
                raise ConfigError(f"{flat or e.field} {e.rule}") from None
        if self.hmm_seq_len < 2:
            raise ConfigError("hmm_seq_len must be >= 2: a one-token row has "
                              "no next-token target")
        if self.prompt_len < 1:
            raise ConfigError("prompt_len must be >= 1")
        if self.prompt_len > self.hmm_seq_len:
            raise ConfigError(f"prompt_len {self.prompt_len} exceeds "
                              f"hmm_seq_len {self.hmm_seq_len}: prompts are "
                              "corpus prefixes")
        if self.rl_max_len <= self.prompt_len:
            raise ConfigError("rl_max_len must be > prompt_len: rollouts "
                              "would make no decisions")

    def _component(self, cls):
        derived = {"n_sequences": self.hmm_train_count + self.hmm_val_count} \
            if cls is HmmCorpusConfig else {}
        return cls(**{f.name: getattr(self, key) for f, key in _keyed(cls)},
                   **derived)

    def arch(self) -> ArchConfig:
        return self._component(ArchConfig)

    def train(self) -> TrainConfig:
        return self._component(TrainConfig)

    def search(self) -> SearchConfig:
        return self._component(SearchConfig)

    def diversity(self) -> DiversityConfig:
        return self._component(DiversityConfig)

    def corpus(self) -> HmmCorpusConfig:
        return self._component(HmmCorpusConfig)


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _convert(key: str, raw: str):
    default = _DEFAULTS[key]
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
                if key not in _DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = _convert(key, raw)
    overrides = list(overrides)
    i = 0
    while i < len(overrides):
        token = overrides[i]
        if not token.startswith("--"):
            raise ConfigError(f"expected --key, got {token!r}")
        key = token[2:]
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        if i + 1 >= len(overrides):
            raise ConfigError(f"missing value for {token!r}")
        values[key] = _convert(key, overrides[i + 1])
        i += 2
    return RunConfig(**values)
