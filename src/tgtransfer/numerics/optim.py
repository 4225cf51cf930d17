"""The Adam optimizer over a ParameterSet.

m and v are one flat vector each, in the parameters' sorted-name order. A
step updates every parameter in one elementwise pass, with the bytes of a
per-parameter update, and rebinds each parameter to its block of the result.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .params import ParameterSet
from .tensor import MissingGradError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


def _flat(arrays: list) -> np.ndarray:
    return np.concatenate(arrays, axis=None) if arrays else np.zeros(0)


class Adam:
    kind = "adam"

    def __init__(self, lr: float):
        self.lr = float(lr)
        self.t = 0
        self._lay_out([])
        self._m = self._v = np.zeros(0)

    def _lay_out(self, layout: list[tuple[str, tuple]]) -> None:
        """Blocks of m and v: (name, shape) each, and its (start, stop)."""
        self._layout = layout
        self._bounds = list(itertools.pairwise(itertools.accumulate((math.prod(s) for _, s in layout), initial=0)))

    def _blocks(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each named block of a flat moment vector, as a view."""
        return {name: flat[lo:hi].reshape(shape) for (name, shape), (lo, hi) in zip(self._layout, self._bounds)}

    def step(self, pset: ParameterSet) -> None:
        params = list(pset.items())
        for name, p in params:
            if p.grad is None:
                raise MissingGradError(f"no gradient for parameter {name}")
        layout = [(name, p.data.shape) for name, p in params]
        if layout != self._layout:  # first step, or new parameters: moments start at zero
            m, v = self._blocks(self._m), self._blocks(self._v)
            self._m, self._v = (_flat([old.get(n, np.zeros(s)) for n, s in layout]) for old in (m, v))
            self._lay_out(layout)
        self.t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        g = _flat([p.grad for _, p in params])
        m, v = self._m, self._v
        # m and v update in place; each line rounds like the expression
        # m = b1 * m + (1 - b1) * g (likewise v), so the bytes match it
        tmp = np.multiply(g, 1.0 - b1)
        m *= b1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - b2
        v *= b2
        v += tmp
        # data - lr * (m / bias1) / (sqrt(v / bias2) + eps), rebinding each
        # p.data because parameter arrays may be shared
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS
        step = np.divide(m, bias1)
        step *= self.lr
        step /= tmp
        data = _flat([p.data for _, p in params])
        np.subtract(data, step, out=step)
        for (_, p), (lo, hi) in zip(params, self._bounds):
            p.data = step[lo:hi].reshape(p.data.shape)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of the step count and moments: `step` updates the moments
        in place, and a snapshot must not follow them."""
        out = {"__step__": np.array([float(self.t)])}
        m, v = self._blocks(self._m), self._blocks(self._v)
        for name in sorted(m):
            out[f"m.{name}"] = m[name].copy()
            out[f"v.{name}"] = v[name].copy()
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        self.t = int(arrays["__step__"][0])
        names = sorted(key.split(".", 1)[1] for key in arrays if key.startswith("m."))
        moments = {key: np.asarray(arr, dtype=np.float64) for key, arr in arrays.items()}
        self._lay_out([(name, moments[f"m.{name}"].shape) for name in names])
        self._m, self._v = (_flat([moments[f"{slot}.{name}"] for name in names]) for slot in "mv")
