"""Model hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass, asdict, fields

from ..errors import ContractError


@dataclass(frozen=True)
class ModelConfig:
    vocab_src: int
    vocab_tgt: int
    d_model: int = 32
    n_layers: int = 2
    m_heads: int = 2
    d_ff: int = 64
    dropout: float = 0.1
    label_smoothing: float = 0.1
    n_context: int = 1
    max_len: int = 256

    def __post_init__(self):
        for name in ("vocab_src", "vocab_tgt", "d_model", "n_layers",
                     "m_heads", "d_ff", "n_context", "max_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ContractError(f"{name} must be an integer, got {value!r}")
            least = 2 if name == "max_len" else 1   # BOS and one token
            if value < least:
                raise ContractError(f"{name} must be >= {least}, got {value}")
        if self.d_model % self.m_heads != 0:
            raise ContractError(
                f"d_model={self.d_model} not divisible by m_heads={self.m_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError("dropout outside [0, 1)")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ContractError("label_smoothing outside [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """The config ``to_dict`` wrote: every field must be given (a
        default could differ from the one the parameters were trained
        under); keys that name no field are ignored."""
        if not isinstance(d, dict):
            raise ContractError(f"config is not an object: {d!r}")
        names = [f.name for f in fields(cls)]
        if missing := [n for n in names if n not in d]:
            raise ContractError(f"config lacks {', '.join(missing)}")
        return cls(**{n: d[n] for n in names})

