"""The Adam optimizer over a ParameterSet.

Updates walk parameters in sorted-name order, so two runs with identical
gradients apply identical floating-point operations.
"""

from __future__ import annotations

import numpy as np

from .params import ParameterSet
from .tensor import MissingGradError


class Adam:
    kind = "adam"

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, pset: ParameterSet) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in pset.items():
            if p.grad is None:
                raise MissingGradError(f"no gradient for parameter {name}")
            g = p.grad
            m, v = self._m.get(name), self._v.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(p.data)
                v = self._v[name] = np.zeros_like(p.data)
            # m and v update in place; each line rounds like the expression
            # m = b1 * m + (1 - b1) * g (likewise v), so the bytes match it
            tmp = np.multiply(g, 1.0 - b1)
            m *= b1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - b2
            v *= b2
            v += tmp
            # p.data - lr * (m / bias1) / (sqrt(v / bias2) + eps), rebinding
            # p.data because parameter arrays may be shared
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            step = np.divide(m, bias1)
            step *= self.lr
            step /= tmp
            p.data = np.subtract(p.data, step, out=step)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of the step count and moments: `step` updates the moments
        in place, and a snapshot must not follow them."""
        out = {"__step__": np.array([float(self.t)])}
        for name in sorted(self._m):
            out[f"m.{name}"] = self._m[name].copy()
            out[f"v.{name}"] = self._v[name].copy()
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self._m.clear()
        self._v.clear()
        self.t = int(arrays["__step__"][0])
        for key, arr in arrays.items():
            if key == "__step__":
                continue
            slot, name = key.split(".", 1)
            target = self._m if slot == "m" else self._v
            target[name] = np.asarray(arr, dtype=np.float64).copy()
