"""Small neural building blocks over the autodiff tensors.

Modules hold no weights themselves. Each instance owns a name prefix and
registers its parameters into a ParameterSet via `init_params`; the forward
call reads them back by name. That keeps every trainable value in one place
for checkpointing and optimizer state.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .params import ParameterSet, xavier_uniform

class Linear:
    """y = x @ W + b with W of shape (in_dim, out_dim), one `T.linear` op."""

    def __init__(self, prefix: str, in_dim: int, out_dim: int):
        self.prefix = prefix
        self.in_dim = in_dim
        self.out_dim = out_dim

    def init_params(self, pset: ParameterSet, rng: np.random.Generator) -> None:
        pset.add(f"{self.prefix}.w", xavier_uniform(rng, self.in_dim, self.out_dim, (self.in_dim, self.out_dim)))
        pset.add(f"{self.prefix}.b", np.zeros(self.out_dim))

    def weights(self, pset: ParameterSet) -> tuple[T.Tensor, T.Tensor]:
        """The (W, b) parameters, for ops that fuse this projection."""
        return pset[f"{self.prefix}.w"], pset[f"{self.prefix}.b"]

    def __call__(self, pset: ParameterSet, x: T.Tensor) -> T.Tensor:
        return T.linear(x, *self.weights(pset))


class Mlp:
    """Stacked Linear layers; leaky ReLU between layers, none after the last."""

    def __init__(self, prefix: str, widths: list[int]):
        if len(widths) < 2:
            raise ValueError("widths must list at least input and output size")
        self.prefix = prefix
        self.layers = [
            Linear(f"{prefix}.l{i}", widths[i], widths[i + 1])
            for i in range(len(widths) - 1)
        ]

    def init_params(self, pset: ParameterSet, rng: np.random.Generator) -> None:
        for layer in self.layers:
            layer.init_params(pset, rng)

    def __call__(self, pset: ParameterSet, x: T.Tensor) -> T.Tensor:
        out = x
        for i, layer in enumerate(self.layers):
            out = layer(pset, out)
            if i < len(self.layers) - 1:
                out = T.leaky_relu(out)
        return out


class GruCell:
    """Single-step GRU: h' = (1-z)*candidate + z*h."""

    def __init__(self, prefix: str, input_dim: int, hidden_dim: int):
        self.prefix = prefix
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim

    def init_params(self, pset: ParameterSet, rng: np.random.Generator) -> None:
        both = self.input_dim + self.hidden_dim
        for gate in ("z", "r", "h"):
            pset.add(
                f"{self.prefix}.w{gate}",
                xavier_uniform(rng, both, self.hidden_dim, (both, self.hidden_dim)),
            )
            pset.add(f"{self.prefix}.b{gate}", np.zeros(self.hidden_dim))

    def __call__(self, pset: ParameterSet, x: T.Tensor, h: T.Tensor) -> T.Tensor:
        p = self.prefix
        xh = T.concat([x, h], axis=1)
        z = T.sigmoid(T.linear(xh, pset[f"{p}.wz"], pset[f"{p}.bz"]))
        r = T.sigmoid(T.linear(xh, pset[f"{p}.wr"], pset[f"{p}.br"]))
        xrh = T.concat([x, r * h], axis=1)
        cand = T.tanh(T.linear(xrh, pset[f"{p}.wh"], pset[f"{p}.bh"]))
        one = T.constant(np.ones((1, self.hidden_dim)))
        return (one - z) * cand + z * h


class TimeEncoder:
    """cos(f * (t - s) + p) with learnable frequencies f and phases p, one
    channel per dim, for the gap from an event time s to a query time t.

    Frequencies start geometrically spaced over [1, 1e-4] so channels cover
    several orders of magnitude of time gaps. The encoding runs through the
    angle-addition identity cos(a - b) = cos a cos b + sin a sin b, with
    a = f * (t - t0) + p and b = f * (s - t0), so trig runs only over the
    distinct query times and the distinct event times of a call. `t0` is a
    reference time, such as a graph's first event time; a row's bytes
    depend on its own (t, s, t0) only.

    Rounding the angles a and b, rather than the gap, moves the result from
    `cos(f * (t - s) + p)` by at most about 8 * eps * max|f| * span for
    times within `span` of `t0` (float64 eps), and by under 1e-12 at a span
    of 3 000. One op, "time_encoder"; the tape keeps sin(a - b) = sin a cos b -
    cos a sin b, taken from the same tables, and the backward runs no trig.
    """

    def __init__(self, prefix: str, dim: int):
        self.prefix = prefix
        self.dim = dim

    def init_params(self, pset: ParameterSet, rng: np.random.Generator) -> None:
        freqs = 1.0 / np.power(10.0, np.linspace(0.0, 4.0, self.dim))
        pset.add(f"{self.prefix}.freq", freqs)
        pset.add(f"{self.prefix}.phase", np.zeros(self.dim))

    def __call__(self, pset: ParameterSet, t: np.ndarray, s: np.ndarray, t0: float, row=None) -> T.Tensor:
        """t, s: float arrays of shape (n,); returns shape (n, dim). With
        `row`, an (n,) index into `t`, row j's query time is `t[row[j]]`, so
        `t` may hold fewer entries than `s`."""
        freq, phase = pset[f"{self.prefix}.freq"], pset[f"{self.prefix}.phase"]
        t_tab, ti = np.unique(np.asarray(t, dtype=np.float64), return_inverse=True)
        ti = ti if row is None else ti.take(row)
        s_tab, si = np.unique(np.asarray(s, dtype=np.float64), return_inverse=True)
        nt = len(t_tab)
        # one angle table: the query times' rows a, then the event times' rows b
        times = np.concatenate([t_tab, s_tab])[:, None] - t0
        angles = times * freq.data
        angles[:nt] += phase.data
        cos_tab, sin_tab = np.cos(angles), np.sin(angles)
        cos_a, sin_a = cos_tab[:nt].take(ti, axis=0), sin_tab[:nt].take(ti, axis=0)
        cos_b, sin_b = cos_tab[nt:].take(si, axis=0), sin_tab[nt:].take(si, axis=0)
        out = cos_a * cos_b
        out += sin_a * sin_b
        if T._grad_enabled:
            sin_diff = sin_a * cos_b
            sin_diff -= cos_a * sin_b

        def backward(g):
            g_sin = g * sin_diff
            g_angles = np.concatenate([T._index_add(ti, -g_sin, nt), T._index_add(si, g_sin, len(s_tab))])
            return (g_angles * times).sum(axis=0), g_angles[:nt].sum(axis=0)

        return T.Tensor(out, _parents=(freq, phase), _backward=backward, _op="time_encoder")
