"""The Adam optimizer over a ParameterSet.

m and v are one flat vector each, in the parameters' sorted-name order,
laid out at zero on the first step; every later step must bring the same
parameter names and shapes. A step updates every parameter in one
elementwise pass, with the bytes of a per-parameter update, and rebinds
each parameter to its block of the result.
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
    def __init__(self, lr: float):
        self.lr = float(lr)
        self.t = 0
        self._layout = None

    def step(self, pset: ParameterSet) -> None:
        params = list(pset.items())
        for name, p in params:
            if p.grad is None:
                raise MissingGradError(f"no gradient for parameter {name}")
        layout = [(name, p.data.shape) for name, p in params]
        if self._layout is None:  # first step: moments start at zero
            self._layout = layout
            offsets = list(itertools.accumulate((math.prod(s) for _, s in layout), initial=0))
            self._bounds = list(itertools.pairwise(offsets))
            self._m, self._v = np.zeros(offsets[-1]), np.zeros(offsets[-1])
        elif layout != self._layout:
            raise ValueError("this Adam steps only the parameter names and shapes of its first step")
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
