"""Named parameter collections.

A `ParameterSet` maps dotted names to trainable tensors. Names are unique and
iteration order is always sorted by name, which pins down checkpoint layout
and optimizer update order.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, parameter


class ParameterSet:
    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = data if isinstance(data, Tensor) else parameter(data)
        if not t.requires_grad:
            raise ValueError(f"parameter {name} must require grad")
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def tensors(self) -> list[Tensor]:
        return [self._params[n] for n in self.names()]

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite values in place; names and shapes must match exactly."""
        if set(arrays) != set(self._params):
            missing = set(self._params) - set(arrays)
            extra = set(arrays) - set(self._params)
            raise ValueError(f"parameter name mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, t in self.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()
            t.grad = None


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
