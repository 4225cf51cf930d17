import types

import numpy as np
import pytest

import tgtransfer.numerics as N
from tgtransfer.numerics import tensor as T

from helpers import (
    AdamLoop, assert_grads_match_fd, cos, div, exp, matmul, segment_softmax, softmax, time_encoder_direct,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# -- gradient checks against finite differences -------------------------------


def test_add_mul_div_broadcast_grads(rng):
    a = N.parameter(rng.normal(size=(3, 4)))
    b = N.parameter(rng.normal(size=(4,)))
    c = N.parameter(rng.normal(size=(3, 1)) + 2.0)

    def loss():
        return N.tensor_mean(div((a + b) * a, c) - b)

    assert_grads_match_fd(loss, [a, b, c], rng)


def test_matmul_grads(rng):
    a = N.parameter(rng.normal(size=(5, 3)))
    w = N.parameter(rng.normal(size=(3, 2)))

    def loss():
        return N.tensor_sum(matmul(a, w) * 0.1)

    assert_grads_match_fd(loss, [a, w], rng)


def test_unary_chain_grads(rng):
    x = N.parameter(rng.normal(size=(6,)) * 0.5 + 1.5)  # keep log/leaky inputs positive

    def loss():
        y = N.tanh(N.sigmoid(x) * 2.0) + N.log(x) - exp(-x) + cos(x)
        return N.tensor_mean(y * y)

    assert_grads_match_fd(loss, [x], rng)


def test_leaky_relu_grads_away_from_kink(rng):
    x = N.parameter(np.array([-2.0, -0.5, 0.7, 3.0]))

    def loss():
        return N.tensor_sum(N.leaky_relu(x))

    assert_grads_match_fd(loss, [x], rng)
    assert np.allclose(x.grad, [0.2, 0.2, 1.0, 1.0])


def _kink_loss():
    # 3e-7 above and 4e-7 below the kink: a central difference at h = 1e-6
    # straddles it at both points
    x = N.parameter(np.array([3e-7, -4e-7]))

    def loss():
        return N.tensor_sum(N.leaky_relu(x))

    return x, loss


def test_fd_check_halves_a_step_that_straddles_a_kink():
    """The plain stencil reads 0.72 and 0.48 where the derivatives are 1 and
    0.2; halving the step until no input changes sign recovers them."""
    x, loss = _kink_loss()
    with pytest.raises(AssertionError, match=r"fd=0\.7[12]\d* ad=1 "):
        assert_grads_match_fd(loss, [x], np.random.default_rng(0), h=1e-6, h_min=1e-6)
    assert_grads_match_fd(loss, [x], np.random.default_rng(0), h=1e-6)
    assert np.array_equal(x.grad, [1.0, 0.2])


def test_fd_check_fails_a_wrong_leaky_relu_backward(monkeypatch):
    """A backward rule that scales the negative side by 0.3 in place of the
    slope 0.2 still fails the kink-robust check, next to the kink and away
    from it."""
    real = T._leaky_relu

    def mutated(x):
        out, _ = real(x)
        return out, lambda g: g * np.where(x > 0.0, 1.0, 0.3)

    monkeypatch.setattr(T, "_leaky_relu", mutated)
    x, loss = _kink_loss()
    with pytest.raises(AssertionError, match=r" ad=0\.3 "):
        assert_grads_match_fd(loss, [x], np.random.default_rng(0), h=1e-6)
    x.data[:] = [0.7, -0.5]
    with pytest.raises(AssertionError, match=r" ad=0\.3 "):
        assert_grads_match_fd(loss, [x], np.random.default_rng(0), h=1e-6)


def test_softmax_grads(rng):
    x = N.parameter(rng.normal(size=(4, 5)))
    weights = rng.normal(size=(4, 5))

    def loss():
        return N.tensor_sum(softmax(x, axis=-1) * N.constant(weights))

    assert_grads_match_fd(loss, [x], rng)


def test_gather_segment_scatter_grads(rng):
    table = N.parameter(rng.normal(size=(7, 3)))
    base = N.parameter(rng.normal(size=(4, 3)))
    idx = np.array([2, 2, 5, 0, 6])
    seg = np.array([0, 1, 1, 3, 0])

    def loss():
        rows = N.gather(table, idx)
        pooled = N.segment_sum(rows, seg, 4)
        merged = N.scatter_rows(base, np.array([1, 3]), N.gather(pooled, np.array([0, 2])))
        return N.tensor_mean(merged * merged)

    assert_grads_match_fd(loss, [table, base], rng)


def test_concat_reshape_grads(rng):
    a = N.parameter(rng.normal(size=(2, 3)))
    b = N.parameter(rng.normal(size=(2, 2)))

    def loss():
        cat = N.concat([a, b], axis=1)
        return N.tensor_mean(cat.reshape(10) * N.constant(np.arange(10.0)))

    assert_grads_match_fd(loss, [a, b], rng)


def test_gru_cell_grads(rng):
    pset = N.ParameterSet()
    cell = N.GruCell("gru", 3, 4)
    cell.init_params(pset, rng)
    x = N.parameter(rng.normal(size=(2, 3)))
    h = N.parameter(rng.normal(size=(2, 4)))

    def loss():
        return N.tensor_mean(cell(pset, x, h))

    assert_grads_match_fd(loss, [x, h] + pset.tensors(), rng, n_coords=3)


def test_mlp_grads(rng):
    pset = N.ParameterSet()
    mlp = N.Mlp("mlp", [4, 8, 2])
    mlp.init_params(pset, rng)
    x = N.parameter(rng.normal(size=(3, 4)))

    def loss():
        out = mlp(pset, x)
        return N.tensor_mean(out * out)

    assert_grads_match_fd(loss, [x] + pset.tensors(), rng, n_coords=3)


def test_bce_loss_grads_and_value(rng):
    logits = N.parameter(np.array([0.3, -1.2, 2.0]))
    labels = np.array([1.0, 0.0, 1.0])

    def loss():
        return N.bce_loss(N.sigmoid(logits), labels)

    assert_grads_match_fd(loss, [logits], rng)
    p = 1.0 / (1.0 + np.exp(-logits.data))
    manual = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))
    assert abs(float(loss().data) - manual) < 1e-12


# -- op semantics --------------------------------------------------------------


def test_softmax_rows_sum_to_one(rng):
    x = N.constant(rng.normal(size=(6, 9)) * 10)
    s = softmax(x, axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    assert (s > 0).all()


def test_softmax_shift_invariance_bitwise():
    # integer-valued entries and an integer shift are exactly representable,
    # so the max-subtracted forward must produce bitwise-equal outputs
    x = np.array([[1.0, 4.0, 2.0], [-3.0, 0.0, 5.0]])
    a = softmax(N.constant(x)).data
    b = softmax(N.constant(x + 7.0)).data
    assert a.tobytes() == b.tobytes()


def test_softmax_matches_direct_formula():
    x = np.array([[0.5, -1.0, 2.2, 0.0]])
    expect = np.exp(x - x.max()) / np.exp(x - x.max()).sum()
    got = softmax(N.constant(x)).data
    assert np.allclose(got, expect, atol=1e-15)


def test_gather_duplicate_index_grads_accumulate():
    table = N.parameter(np.arange(6.0).reshape(3, 2))
    out = N.gather(table, np.array([1, 1, 2]))
    N.backward(N.tensor_sum(out))
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [1, 1]])


def test_segment_sum_matches_loop(rng):
    x = rng.normal(size=(10, 3))
    seg = rng.integers(0, 4, size=10)
    got = N.segment_sum(N.constant(x), seg, 4).data
    expect = np.zeros((4, 3))
    for row, s in zip(x, seg):
        expect[s] += row
    # rows are added in input order, so the bytes match the loop exactly
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("shape", [(40, 3), (40,), (3000, 40)])
def test_segment_sum_bytes_match_loop_at_any_width(shape):
    # magnitudes spread over many decades make every reordering visible;
    # the tall case sums 120 000 cells through one flattened index
    rng = np.random.default_rng(3)
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    seg = rng.integers(0, 7, size=shape[0])
    expect = np.zeros((7,) + shape[1:])
    for row, s in zip(x, seg):
        expect[s] += row
    assert N.segment_sum(N.constant(x), seg, 7).data.tobytes() == expect.tobytes()


def test_gather_backward_bytes_match_loop_with_repeats():
    rng = np.random.default_rng(4)
    table = N.parameter(rng.normal(size=(5, 3)))
    idx = np.array([3, 1, 3, 3, 0, 1, 3, -2])  # -2 wraps to row 3
    g = rng.normal(size=(len(idx), 3)) * 10.0 ** rng.integers(-8, 9, size=(len(idx), 3))
    N.backward(N.tensor_sum(N.gather(table, idx) * N.constant(g)))
    expect = np.zeros((5, 3))
    for row, k in zip(g, idx):
        expect[k] += row
    assert table.grad.tobytes() == expect.tobytes()


@pytest.mark.parametrize("rows, width", [(40_000, 33), (600_000, 2)])
def test_index_add_column_blocks_match_add_at(rows, width):
    # large flat (row, column) indices: 1 320 000 and 1 200 000 cells
    rng = np.random.default_rng(6)
    n = 5000
    idx = rng.integers(-n, n, size=rows)
    values = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 9, size=(rows, width))
    expect = np.zeros((n, width))
    np.add.at(expect, idx, values)
    assert T._index_add(idx, values, n).tobytes() == expect.tobytes()


def test_linear_bytes_match_matmul_plus_add(rng):
    x = N.parameter(rng.normal(size=(7, 4)))
    w = N.parameter(rng.normal(size=(4, 3)))
    b = N.parameter(rng.normal(size=(3,)))
    g = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-8, 9, size=(7, 3))
    runs = []
    for op in (N.linear, lambda x, w, b: matmul(x, w) + b):
        x.grad = w.grad = b.grad = None
        out = op(x, w, b)
        N.backward(N.tensor_sum(out * N.constant(g)))
        runs.append([out.data, x.grad, w.grad, b.grad])
    for got, expect in zip(*runs):
        assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("k", [8, 32])
def test_linear_of_width_one_gives_a_row_the_same_bytes_in_any_batch(rng, k):
    """A one-column output is a score per row (the TGN decoder's); a row
    keeps its bytes whatever rows share its batch, where numpy's
    matrix-vector kernel gives some rows other bytes at some offsets and
    batch sizes."""
    x = rng.normal(size=(400, k))
    w, b = N.constant(rng.normal(size=(k, 1))), N.constant(rng.normal(size=(1,)))
    full = N.linear(N.constant(x), w, b).data
    assert np.allclose(full, x @ w.data + b.data, rtol=0.0, atol=1e-13)
    for lo in range(12):
        for m in (1, 2, 3, 5, 7, 9, 35):
            assert N.linear(N.constant(x[lo : lo + m]), w, b).data.tobytes() == full[lo : lo + m].tobytes()


def test_gather_accepts_a_slice(rng):
    base = N.parameter(rng.normal(size=(6, 2)))
    weights = N.constant(rng.normal(size=(3, 2)))

    def run(idx):
        base.grad = None
        out = N.gather(base, idx)
        N.backward(N.tensor_sum(out * weights))
        return out.data, base.grad

    for a, b in zip(run(slice(2, 5)), run(np.arange(2, 5))):
        assert a.tobytes() == b.tobytes()


def test_segment_sum_rejects_out_of_range_ids():
    with pytest.raises(IndexError):
        N.segment_sum(N.constant(np.ones((2, 2))), np.array([0, 4]), 4)
    with pytest.raises(IndexError):
        N.segment_sum(N.constant(np.ones((2, 2))), np.array([0, -5]), 4)


def test_matmul_with_inner_dimension_one_matches_blas_bytes():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(50, 1))
    b = rng.normal(size=(1, 7))
    a[::4] = 0.0
    a[1::4] = -0.0
    b[0, 2] = -0.0
    x, w = N.parameter(a), N.parameter(b)
    out = matmul(x, w)
    assert out.data.tobytes() == (a @ b).tobytes()
    g = rng.normal(size=(50, 7))
    g[::3] = -0.0
    ga, gb = out._backward(g)
    assert ga.tobytes() == (g @ b.T).tobytes()
    assert gb.tobytes() == (a.T @ g).tobytes()
    # a single output column makes the backward product with x an outer product
    y = matmul(N.parameter(g), N.parameter(rng.normal(size=(7, 1))))
    g1 = rng.normal(size=(50, 1))
    g1[::5] = -0.0
    assert y._backward(g1)[0].tobytes() == (g1 @ y._parents[1].data.T).tobytes()


@pytest.mark.parametrize("slope", [0.2, 0.0, 1.0])
def test_leaky_relu_bytes_match_where(slope, monkeypatch):
    """At `T.SLOPE` and at the ends of the [0, 1] range `_leaky_relu` relies on."""
    monkeypatch.setattr(T, "SLOPE", slope)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 5))
    x[0, :3] = [0.0, -0.0, 1e-310]
    g = rng.normal(size=x.shape)
    g[1, :2] = [0.0, -0.0]
    out = N.leaky_relu(N.parameter(x))
    (grad,) = out._backward(g)
    mask = x > 0.0
    assert out.data.tobytes() == np.where(mask, x, slope * x).tobytes()
    assert grad.tobytes() == (g * np.where(mask, 1.0, slope)).tobytes()


def test_segment_sum_empty_segment_is_zero():
    x = N.constant(np.ones((2, 2)))
    out = N.segment_sum(x, np.array([0, 2]), 4).data
    assert np.array_equal(out[1], [0, 0]) and np.array_equal(out[3], [0, 0])


def segment_softmax_loop(x, seg, count):
    """Per-segment reference: shift by the segment max, exponentiate, and
    add the rows in order onto 0.0."""
    out = np.empty_like(x)
    for s in range(count):
        rows = np.flatnonzero(seg == s)
        if rows.size:
            e = np.exp(x[rows] - x[rows].max(axis=0))
            total = np.zeros(x.shape[1:])
            for r in e:
                total = total + r
            out[rows] = e / total
    return out


@pytest.mark.parametrize("shape", [(40, 3), (40, 1), (40,), (3000, 40)])
def test_segment_softmax_bytes_match_loop(shape):
    # the tall case sums 120 000 cells through one flattened index; the
    # library's array softmax, which the attention ops run, and the composed
    # ops both give the loop's bytes, and their gradients agree
    rng = np.random.default_rng(5)
    x = rng.normal(size=shape) * 10.0
    seg = np.sort(rng.integers(0, 9, size=shape[0]))
    seg[seg == 4] = 5  # segment 4 is empty
    xt = N.parameter(x)
    composed = segment_softmax(xt, seg, 9)
    alpha, backward = T._segment_softmax(x, seg, T._index_plan(seg, 9, int(np.prod(shape[1:]))))
    expect = segment_softmax_loop(x, seg, 9).tobytes()
    assert composed.data.tobytes() == expect and alpha.tobytes() == expect
    g = rng.normal(size=shape)
    N.backward(N.tensor_sum(composed * N.constant(g)))
    assert np.allclose(backward(g), xt.grad, rtol=1e-10, atol=1e-12)


def test_segment_softmax_grads(rng):
    x = N.parameter(rng.normal(size=(7, 2)))
    seg = np.array([0, 0, 0, 2, 2, 3, 3])  # segment 1 is empty, 4 is past the last row
    weights = rng.normal(size=(7, 2))

    def build():
        return N.tensor_sum(segment_softmax(x, seg, 5) * N.constant(weights))

    assert_grads_match_fd(build, [x], rng, n_coords=8)


def test_segment_softmax_rejects_unsorted_ids():
    with pytest.raises(ValueError):
        segment_softmax(N.constant(np.zeros((3, 2))), np.array([0, 1, 0]), 2)
    assert segment_softmax(N.constant(np.zeros((0, 2))), np.zeros(0, dtype=np.int64), 3).shape == (0, 2)


def test_scatter_rows_semantics():
    base = N.constant(np.zeros((4, 2)))
    rows = N.constant(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = N.scatter_rows(base, np.array([2, 0]), rows)
    assert np.array_equal(out.data, [[3, 4], [0, 0], [1, 2], [0, 0]])


def test_scatter_rows_rejects_duplicate_indices():
    base = N.constant(np.zeros((3, 2)))
    rows = N.constant(np.ones((2, 2)))
    with pytest.raises(ValueError):
        N.scatter_rows(base, np.array([1, 1]), rows)


def test_duplicate_parent_accumulates():
    x = N.parameter(np.array([3.0]))
    N.backward(N.tensor_sum(x * x))
    assert np.allclose(x.grad, [6.0])


def test_matmul_shape_errors():
    a = N.constant(np.zeros((2, 3)))
    b = N.constant(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        matmul(a, b)
    with pytest.raises(ValueError):
        matmul(a, N.constant(np.zeros(3)))


def test_nonfinite_forward_raises():
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(N.NonFiniteError):
            exp(N.constant(np.array([1e4])))
        with pytest.raises(N.NonFiniteError):
            N.log(N.constant(np.array([-1.0])))
        with pytest.raises(N.NonFiniteError):
            div(N.constant(np.array([1.0])), N.constant(np.array([0.0])))
        with pytest.raises(N.NonFiniteError):
            N.Tensor(np.array([np.nan]))


def test_nan_planted_in_a_parameter_after_adam_step_raises(rng):
    # copy ops pass values on unchecked; the next op that computes raises
    pset = N.ParameterSet()
    lin = N.Linear("fc", 3, 2)
    lin.init_params(pset, rng)
    pset.add("table", rng.normal(size=(4, 3)))

    def forward():
        rows = N.gather(pset["table"], np.array([0, 2, 2])).reshape((3, 3))
        return N.tensor_sum(lin(pset, N.concat([rows], axis=0)))

    N.backward(forward(), params=pset.tensors())
    N.Adam(lr=0.01).step(pset)
    for name in ("fc.w", "table"):
        kept = pset[name].data.copy()
        pset[name].data[0, 0] = np.nan
        with pytest.raises(N.NonFiniteError, match="linear"):
            forward()
        pset[name].data = kept
    forward()


def test_backward_requires_scalar():
    x = N.parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        N.backward(x + x)


def test_no_grad_blocks_tape():
    x = N.parameter(np.ones(3))
    with N.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    z = x * 2.0
    assert z.requires_grad


def test_backward_zero_fills_unused_params():
    used = N.parameter(np.ones(2))
    unused = N.parameter(np.ones(3))
    N.backward(N.tensor_sum(used), params=[used, unused])
    assert np.array_equal(unused.grad, np.zeros(3))
    assert np.array_equal(used.grad, np.ones(2))


def test_backward_binds_first_gradient_without_a_zero_fill(monkeypatch):
    a = N.parameter(np.ones((2, 3)))
    b = N.parameter(np.ones(3))
    signs = np.array([[1.0, -0.0, 2.0], [-0.0, 3.0, 1.0]])
    calls = []
    zeros_like = np.zeros_like
    monkeypatch.setattr(np, "zeros_like", lambda *args, **kw: calls.append(1) or zeros_like(*args, **kw))
    N.backward(N.tensor_sum(a * N.constant(signs) + b), params=[a, b])
    assert calls == []
    # a gradient of -0.0 is stored as +0.0, in a fresh writable array
    assert np.array_equal(a.grad, signs) and not np.signbit(a.grad).any()
    assert a.grad.flags.writeable and not np.shares_memory(a.grad, signs)
    assert np.array_equal(b.grad, np.full(3, 2.0))


# -- modules -------------------------------------------------------------------


def test_linear_values(rng):
    pset = N.ParameterSet()
    lin = N.Linear("fc", 3, 2)
    lin.init_params(pset, rng)
    x = rng.normal(size=(4, 3))
    got = lin(pset, N.constant(x)).data
    expect = x @ pset["fc.w"].data + pset["fc.b"].data
    assert np.allclose(got, expect, atol=1e-15)


def test_gru_cell_matches_manual_gates(rng):
    pset = N.ParameterSet()
    cell = N.GruCell("g", 2, 3)
    cell.init_params(pset, rng)
    x = rng.normal(size=(1, 2))
    h = rng.normal(size=(1, 3))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    xh = np.concatenate([x, h], axis=1)
    z = sig(xh @ pset["g.wz"].data + pset["g.bz"].data)
    r = sig(xh @ pset["g.wr"].data + pset["g.br"].data)
    xrh = np.concatenate([x, r * h], axis=1)
    cand = np.tanh(xrh @ pset["g.wh"].data + pset["g.bh"].data)
    expect = (1 - z) * cand + z * h
    got = cell(pset, N.constant(x), N.constant(h)).data
    assert np.allclose(got, expect, atol=1e-12)


def test_gru_identity_when_update_gate_saturates(rng):
    # huge positive z-bias drives z to 1, so the state passes through
    pset = N.ParameterSet()
    cell = N.GruCell("g", 2, 3)
    cell.init_params(pset, rng)
    pset["g.bz"].data = np.full(3, 50.0)
    h = rng.normal(size=(4, 3))
    out = cell(pset, N.constant(rng.normal(size=(4, 2))), N.constant(h)).data
    assert np.allclose(out, h, atol=1e-8)


def test_time_encoder_formula_and_shape(rng):
    pset = N.ParameterSet()
    te = N.TimeEncoder("t", 8)
    te.init_params(pset, rng)
    t, s = np.array([10.0, 11.5, 210.0]), np.array([10.0, 10.0, 10.0])
    out = te(pset, t, s, 10.0).data
    assert out.shape == (3, 8)
    dt = t - s
    expect = np.cos(dt[:, None] * pset["t.freq"].data + pset["t.phase"].data)
    assert np.allclose(out, expect, atol=1e-15)
    # dt of zero with zero phase gives cos(0) = 1 in every channel
    assert np.allclose(out[0], 1.0)


def test_time_encoder_grads(rng):
    pset = N.ParameterSet()
    te = N.TimeEncoder("t", 4)
    te.init_params(pset, rng)
    t, s = np.array([5.3, 7.0]), np.array([5.0, 5.0])

    def loss():
        return N.tensor_mean(te(pset, t, s, 5.0))

    assert_grads_match_fd(loss, pset.tensors(), rng)


def _time_encoder_with_phases(rng, dim=16):
    pset = N.ParameterSet()
    te = N.TimeEncoder("t", dim)
    te.init_params(pset, rng)
    pset["t.phase"].data = rng.uniform(-np.pi, np.pi, dim)
    return pset, te


@pytest.mark.parametrize("span", [3_000.0, 1e6])
def test_time_encoder_tables_stay_close_to_the_direct_form(span):
    """The angle-addition tables round the angles f * (t - t0) + p and
    f * (s - t0), not the gap: within 1e-12 of cos(f * (t - s) + p) at the
    README's span of 3 000, and within 8 * eps * max|f| * span beyond it."""
    rng = np.random.default_rng(8)
    pset, te = _time_encoder_with_phases(rng)
    t0 = 1234.5
    s = t0 + rng.uniform(0.0, span, 2000)
    t = np.maximum(s, t0 + rng.uniform(0.0, span, 2000))
    t[:100] = s[:100]  # zero gaps, as every query has to itself
    got = te(pset, t, s, t0).data
    bound = 1e-12 if span == 3_000.0 else 8 * np.finfo(np.float64).eps * np.abs(pset["t.freq"].data).max() * span
    assert np.abs(got - time_encoder_direct(te, pset, t - s)).max() <= bound


def test_time_encoder_table_grads_match_fd():
    """Frequency and phase gradients through the tables, with query and
    event times that repeat, so each table row sums several gaps."""
    rng = np.random.default_rng(9)
    pset, te = _time_encoder_with_phases(rng, dim=6)
    t0 = 40.0
    s = t0 + rng.choice(rng.uniform(0.0, 300.0, 5), 30)
    t = s + rng.choice(rng.uniform(0.0, 50.0, 4), 30)
    weights = N.constant(rng.normal(size=(30, 6)))

    def loss():
        return N.tensor_mean(te(pset, t, s, t0) * weights)

    assert_grads_match_fd(loss, [pset["t.freq"], pset["t.phase"]], rng, n_coords=6)


# -- parameter sets and optimizers ----------------------------------------------


def test_parameterset_sorted_iteration_and_duplicates():
    pset = N.ParameterSet()
    pset.add("b", np.zeros(1))
    pset.add("a", np.zeros(1))
    assert pset.names() == ["a", "b"]
    with pytest.raises(ValueError):
        pset.add("a", np.zeros(1))


def test_parameterset_load_arrays_validates():
    pset = N.ParameterSet()
    pset.add("w", np.ones(2))
    with pytest.raises(ValueError):
        pset.load_arrays({"w": np.ones(3)})
    with pytest.raises(ValueError):
        pset.load_arrays({"x": np.ones(2)})
    pset.load_arrays({"w": np.array([5.0, 6.0])})
    assert np.array_equal(pset["w"].data, [5.0, 6.0])


def test_adam_missing_grad_raises():
    pset = N.ParameterSet()
    pset.add("w", np.array([1.0]))
    with pytest.raises(N.MissingGradError):
        N.Adam(lr=0.1).step(pset)


def test_adam_matches_reference_two_steps():
    # independent reimplementation of the update rule, two steps
    pset = N.ParameterSet()
    w = pset.add("w", np.array([1.0, -2.0]))
    opt = N.Adam(lr=0.01)
    grads = [np.array([0.3, -0.7]), np.array([-0.1, 0.4])]

    ref = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        ref = ref - 0.01 * mh / (np.sqrt(vh) + 1e-8)

        w.grad = g.copy()
        opt.step(pset)
        pset.zero_grads()
    assert np.allclose(w.data, ref, atol=1e-15)


def test_adam_bytes_match_the_update_expression(rng):
    # the update as one expression per array, rebinding every result
    pset = N.ParameterSet()
    shapes = {"a": (3, 4), "b": (5,), "c": (1, 1)}
    ref = {}
    for name, shape in shapes.items():
        ref[name] = rng.normal(size=shape)
        pset.add(name, ref[name].copy())
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    opt = N.Adam(lr=0.01)
    for t in range(1, 21):
        for name, p in pset.items():
            g = rng.normal(size=shapes[name]) * 10.0 ** rng.integers(-6, 3)
            p.grad = g
            m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
            v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
            m_hat = m[name] / (1.0 - 0.9 ** t)
            v_hat = v[name] / (1.0 - 0.999 ** t)
            ref[name] = ref[name] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        opt.step(pset)
        for name, p in pset.items():
            assert p.data.tobytes() == ref[name].tobytes(), (t, name)


def test_adam_bytes_match_a_per_parameter_loop(rng):
    """The flat one-pass update equals `AdamLoop` byte for byte after every
    step, also on a parameter whose gradient is zero (of either sign)."""
    shapes = {"b": (5,), "a": (3, 4), "z": (2, 2), "c": (1, 1)}
    psets = [N.ParameterSet(), N.ParameterSet()]
    for name, shape in shapes.items():
        value = rng.normal(size=shape)
        for pset in psets:
            pset.add(name, value.copy())
    opt, ref = N.Adam(lr=0.01), AdamLoop(lr=0.01)
    for t in range(1, 13):
        for name, shape in shapes.items():
            g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
            if name == "z":
                g = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
            for pset in psets:
                pset[name].grad = g.copy()
        opt.step(psets[0])
        ref.step(psets[1])
        for name, p in psets[0].items():
            assert p.data.tobytes() == psets[1][name].data.tobytes(), (t, name)


@pytest.mark.parametrize("change", ["added", "dropped", "reshaped"])
def test_adam_steps_only_the_parameters_of_its_first_step(change):
    pset = N.ParameterSet()
    for name in "ab":
        pset.add(name, np.ones(2)).grad = np.full(2, 0.5)
    opt = N.Adam(lr=0.05)
    opt.step(pset)
    other = N.ParameterSet()
    shapes = {"added": {"a": 2, "b": 2, "c": 2}, "dropped": {"a": 2}, "reshaped": {"a": 2, "b": 3}}[change]
    for name, size in shapes.items():
        other.add(name, np.ones(size)).grad = np.full(size, 0.5)
    with pytest.raises(ValueError, match="first step"):
        opt.step(other)


def test_adam_step_rebinds_parameter_arrays_without_writing_them():
    # parameter arrays may be shared, so a step must leave the old array as it was
    pset = N.ParameterSet()
    w = pset.add("w", np.array([1.0, 2.0]))
    shared = w.data
    opt = N.Adam(lr=0.05)
    for g in ([0.2, -0.3], [-0.1, 0.6]):
        w.grad = np.array(g)
        opt.step(pset)
    assert w.data is not shared
    assert np.array_equal(shared, [1.0, 2.0])


def test_training_loop_is_deterministic():
    def run():
        rng = np.random.default_rng(7)
        pset = N.ParameterSet()
        mlp = N.Mlp("m", [3, 5, 1])
        mlp.init_params(pset, rng)
        opt = N.Adam(lr=0.01)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 1))
        for _ in range(5):
            pset.zero_grads()
            pred = mlp(pset, N.constant(x))
            diff = pred - N.constant(y)
            N.backward(N.tensor_mean(diff * diff), params=pset.tensors())
            opt.step(pset)
        return np.concatenate([t.data.ravel() for t in pset.tensors()])

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


# -- C heap setting for training ------------------------------------------------


@pytest.fixture
def fresh_heap_setting():
    """`_keep_freed_pages` as if never called, and again so after the test:
    the next real call then sets glibc's thresholds itself."""
    T._keep_freed_pages.cache_clear()
    yield
    T._keep_freed_pages.cache_clear()


def test_keep_freed_pages_sets_glibc_thresholds_once(monkeypatch, fresh_heap_setting):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    T._keep_freed_pages()
    # M_TRIM_THRESHOLD 256 MiB, M_MMAP_THRESHOLD 32 MiB
    assert calls == [(-1, 256 << 20), (-3, 32 << 20)]
    T._keep_freed_pages()
    assert len(calls) == 2


def test_keep_freed_pages_without_mallopt_does_nothing(monkeypatch, fresh_heap_setting):
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert T._keep_freed_pages() is None


# -- checkpoint blobs ------------------------------------------------------------


def test_checkpoint_roundtrip_bitexact(tmp_path, rng):
    arrays = {
        "w.alpha": rng.normal(size=(3, 4)),
        "w.beta": rng.normal(size=(7,)),
        "counts": np.array([1, 5, 9], dtype=np.int64),
    }
    meta = {"seed": 42, "note": "fixture"}
    path = tmp_path / "ck.bin"
    N.write_blob(path, meta, arrays)
    meta2, arrays2 = N.read_blob(path)
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for k in arrays:
        assert arrays2[k].tobytes() == np.ascontiguousarray(arrays[k]).tobytes()
        assert arrays2[k].dtype == arrays[k].dtype


def test_checkpoint_rewrite_byte_identical(tmp_path, rng):
    arrays = {"a": rng.normal(size=(5, 2)), "b": np.arange(4, dtype=np.int64)}
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    N.write_blob(p1, {"k": 1}, arrays)
    N.write_blob(p2, {"k": 1}, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_schema_mismatch(tmp_path):
    path = tmp_path / "ck.bin"
    N.write_blob(path, {}, {"a": np.zeros(2)})
    raw = path.read_bytes()
    hacked = raw.replace(b'"schema":1', b'"schema":999')
    path.write_bytes(hacked)
    with pytest.raises(N.CheckpointError):
        N.read_blob(path)


def test_checkpoint_truncated_and_trailing(tmp_path):
    path = tmp_path / "ck.bin"
    N.write_blob(path, {}, {"a": np.zeros(4)})
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(N.CheckpointError):
        N.read_blob(path)
    path.write_bytes(raw + b"xx")
    with pytest.raises(N.CheckpointError):
        N.read_blob(path)


def test_checkpoint_missing_header(tmp_path):
    path = tmp_path / "ck.bin"
    path.write_bytes(b"no newline here")
    with pytest.raises(N.CheckpointError):
        N.read_blob(path)


@pytest.mark.parametrize("header", [
    b"[]",
    b'{"meta":{},"schema":1}',
    b'{"arrays":{},"meta":{},"schema":1}',
    b'{"arrays":[],"meta":[],"schema":1}',
    b'{"arrays":["a"],"meta":{},"schema":1}',
    b'{"arrays":[{"dtype":"<f8","name":"a"}],"meta":{},"schema":1}',
    b'{"arrays":[{"dtype":"<f8","name":"a","shape":[-1]}],"meta":{},"schema":1}',
], ids=["list", "no-arrays", "arrays-object", "meta-list", "entry-string", "entry-without-shape",
        "negative-shape"])
def test_checkpoint_malformed_header(tmp_path, header):
    path = tmp_path / "ck.bin"
    path.write_bytes(header + b"\n")
    with pytest.raises(N.CheckpointError):
        N.read_blob(path)
