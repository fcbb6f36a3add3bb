"""Array-level forward/backward primitives for the voicing model.

Convolutions act along the frequency axis only (all kernels are 1 in time),
so frame count is preserved everywhere. Convolutional activations are laid
out channels-last as [batch, time, freq, channel]: a convolution is one
matrix product of tap-major columns, copied once from a sliding-window view
of the input, with the kernel, and its input gradient is one product per
tap added into the frequencies that tap read. A convolution's input already
holds its zero frequency padding (the Conv-DC block's buffer carries the pad
bins). Recurrent/head stages use [batch, time, feature]. Every forward
returns (output, cache) and the matching backward consumes the cache and
returns input/parameter gradients; batch norm returns a cache only in
training mode, the only mode backprop runs through.

Per-channel elementwise work on a [B, T, F, C] array runs on its
[B*T, F*C] row view, with each per-channel vector tiled across the F bins,
so every ufunc runs one long inner loop instead of broadcasting over the
short channel axis (C is 2..18 in the reduced model, so a broadcast's inner
loop would be that short). No masked ufunc
(`where=`) and no `np.where` is used: ELU and sigmoid are built from
min/max and plain exponentials. Every value is the bit-exact value of the
direct broadcast and branch formulas.

Every per-channel sum over rows (batch-norm statistics and gradients, the
conv, linear and BLSTM bias gradients, the layer-norm gain and offset
gradients) goes through `_row_sums`. On [N, C] rows of contiguous channels,
numpy's `a.sum(axis=0)` adds the rows one after the other with an inner
loop only C long; `np.einsum("ij->j", a)` adds them in the same order, each
channel's running sum one loop over N, and `np.einsum("ij,ij->j", a, b)`
needs no `a * b` temporary. Both give the bits of the sum they replace
(`x.sum(axis=(0, 1, 2))` of a [B, T, F, C] activation), about four times
faster at C = 2..18. With one channel sum is pairwise, and on any other
layout (such as the permuted gradient between BLSTM layers) it runs in
memory order, so there `_row_sums` keeps sum.

The large ops run on the worker pool of `_pool`, each worker on disjoint
slices of the output, and no sum is ever split across workers, so every
result has the same bits for any worker count (and BLAS runs one thread):
- the convolution forward (column copy, product, bias) and the input
  gradient (zeroing, per-tap products, tap adds) over slices of the B*T
  time rows, cut where `_pool` keeps OpenBLAS's arithmetic unchanged;
- the weight gradient `cols.T @ dy` over its output rows, each slice one
  product over all N rows, next to the bias sum;
- the batch-norm, ELU, sigmoid and gated-convolution elementwise passes
  over time rows, and each pair of independent channel sums as two tasks.
A channel sum split over rows would add partial sums in another order, and
a product split along its contracted axis likewise; neither is done. Worker
bodies call only numpy and `_`-prefixed helpers.
"""
from __future__ import annotations

from math import gcd

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._pool import (
    ELEMENT_CHUNK, ELEMENT_FLOOR, PRODUCT_CHUNK, PRODUCT_FLOOR, ROW_ALIGN, _for_slices, _gather, _slices,
)


def conv_freq_out_size(f: int, kernel: int, stride: int, pad: int) -> int:
    return (f + 2 * pad - kernel) // stride + 1


def _rows(x):
    """[..., F, C] -> [rows, F*C], the layout of every per-channel op."""
    return x.reshape(-1, x.shape[-2] * x.shape[-1])


def _time_rows(x):
    """[B, T, ...] -> [B*T, ...]: a view of every array an op writes into
    (the batch and time axes of fresh arrays and of Conv-DC buffer views
    merge), so a slice of it is a slice of the array."""
    return x.reshape(-1, *x.shape[2:]) if x.ndim > 2 else x


def _elementwise(body, *arrays):
    """body(*slices) on the same leading-row slice of each of the arrays (all
    of one shape), the slices spread over the worker pool."""
    rows = [_time_rows(a) for a in arrays]
    _for_slices(lambda s: body(*(r[s] for r in rows)), rows[0].shape[0], arrays[0].size, ELEMENT_FLOOR,
                most=ELEMENT_CHUNK)


def _add_into(a, b):
    a += b


def _product_rows(fo: int) -> int:
    """Time-row alignment that puts every cut of a product with fo output
    rows per time row at a multiple of ROW_ALIGN product rows."""
    return ROW_ALIGN // gcd(fo, ROW_ALIGN)


def _row_sums(a, b=None):
    """a.sum over every axis but the last, or the same sum of a * b without
    the product temporary, bit-equal to those.

    When the operands are [N, C] rows of C >= 2 contiguous channels of one
    float dtype, sum adds the rows in order with a C-long inner loop;
    einsum, without `optimize` (no BLAS route), adds them in the same order
    as one loop over N per channel. Any other layout or dtype, and C == 1
    (where sum is pairwise), keeps sum.
    """
    c = a.shape[-1]
    operands = (a,) if b is None else (a, b)
    rows = [x.reshape(-1, c) for x in operands]
    if c > 1 and all(_channel_rows(r, x, a.dtype) for r, x in zip(rows, operands)):
        return np.einsum("ij->j" if b is None else "ij,ij->j", *rows)
    return (a if b is None else a * b).sum(axis=tuple(range(a.ndim - 1)))


def _channel_rows(rows, x, dtype) -> bool:
    """rows (x viewed as [N, C], not a copy of it) holds disjoint rows of
    contiguous channels in one float dtype."""
    return (rows.dtype == dtype and dtype.char in "fd" and np.may_share_memory(rows, x)
            and rows.strides[1] == rows.itemsize and rows.strides[0] >= rows.shape[1] * rows.itemsize)


def _channel_mean(a, b=None):
    """a.mean over every axis but the last, or that mean of a * b:
    `_row_sums` divided the way `x.mean` and `x.var` divide."""
    s = _row_sums(a, b)
    return np.true_divide(s, np.intp(a.size // a.shape[-1]), out=s, casting="unsafe")


def _im2col(xp, k: int, stride: int, fo: int, out=None):
    """[..., Fp, C] -> [..., Fo, K*C] tap-major columns, into `out` if given.

    One copy of the strided window view with the tap axis moved ahead of
    the channels, so column j*C + c holds xp[..., f*stride + j, c].
    """
    c = xp.shape[-1]
    windows = sliding_window_view(xp, k, axis=-2)[..., : (fo - 1) * stride + 1 : stride, :, :]
    windows = windows.swapaxes(-1, -2)
    if out is None:
        return np.ascontiguousarray(windows).reshape(*windows.shape[:-2], k * c)
    out.reshape(windows.shape)[...] = windows
    return out


def conv_freq_forward(x, w, b, stride: int):
    """Convolution with a 1 x K (time x freq) kernel as one matrix product.

    x: [B, T, F, C], already holding any zero frequency padding; w: [K, C, O];
    b: [O] -> y: [B, T, Fo, O]

    The product runs over time-row slices: each worker copies its rows'
    columns, multiplies them and adds the bias.
    """
    k, c, o = w.shape
    fo = conv_freq_out_size(x.shape[2], k, stride, 0)
    y = np.empty((*x.shape[:2], fo, o), dtype=np.result_type(x, w))
    xr, yr, y_rows = _time_rows(x), _time_rows(y), _rows(y)
    w2, bias = w.reshape(k * c, o), np.tile(b, fo)

    def rows(s):
        cols = _im2col(xr[s], k, stride, fo)
        np.matmul(cols.reshape(-1, k * c), w2, out=yr[s].reshape(-1, o))
        y_rows[s] += bias

    n = xr.shape[0]
    _for_slices(rows, n, n * fo * k * c * o, PRODUCT_FLOOR, _product_rows(fo), PRODUCT_CHUNK)
    return y, (x, stride, w)


def conv_freq_backward(dy, cache):
    """Returns (dx, dw, db) for conv_freq_forward, dx of the whole input.

    Columns are rebuilt from the cached input rather than cached, keeping
    activation memory proportional to the input. The input gradient
    needs no column buffer: tap j adds one [N, O] x [O, C] product into the
    frequencies it read, taps in order, so every element sums the same
    length-O dot products in the same order as a scatter of the full
    column gradient would. With one channel that product would be a
    matrix-vector product, which BLAS sums in another order, so all taps
    then share one [N, O] x [O, K] product.
    """
    x, stride, w = cache
    k, c, o = w.shape
    fo = dy.shape[2]
    span = (fo - 1) * stride + 1
    dy2 = dy.reshape(-1, o)
    n = dy2.shape[0] // fo
    xr, dyr = _time_rows(x), dy2.reshape(n, fo, o)
    cols = np.empty((n, fo, k * c), dtype=x.dtype)
    _for_slices(lambda s: _im2col(xr[s], k, stride, fo, out=cols[s]), n, cols.size, ELEMENT_FLOOR,
                most=ELEMENT_CHUNK)
    cols = cols.reshape(-1, k * c)
    dw = np.empty((k * c, o), dtype=np.result_type(cols, dy2))

    def dw_rows(s):
        np.matmul(cols[:, s].T, dy2, out=dw[s])

    slices = _slices(k * c, cols.size * o, PRODUCT_FLOOR, ROW_ALIGN)
    db = _gather(cols.size, *(lambda s=s: dw_rows(s) for s in slices), lambda: _row_sums(dy2))[-1]
    del cols  # freed before the input gradient is built, as without the pool
    dx = np.empty(x.shape, dtype=x.dtype)
    dxr = _time_rows(dx)
    taps = 1 if c > 1 else k
    wt = [w[j0 : j0 + taps].reshape(-1, o).T for j0 in range(0, k, taps)]

    def dx_rows(s):
        dx_s = dxr[s]
        dx_s[...] = 0
        for j0, w_j in zip(range(0, k, taps), wt):
            dcols = (dyr[s].reshape(-1, o) @ w_j).reshape(-1, fo, taps, c)
            for j in range(j0, j0 + taps):
                dx_s[:, j : j + span : stride, :] += dcols[:, :, j - j0, :]

    _for_slices(dx_rows, n, n * fo * o * taps * c, PRODUCT_FLOOR, _product_rows(fo), PRODUCT_CHUNK)
    return dx, dw.reshape(k, c, o), db


def batchnorm_forward(x, gamma, beta, running_mean, running_var,
                      momentum: float, eps: float, training: bool):
    """Per-channel batch norm over (batch, time, freq) of a [B,T,F,C] tensor.

    Training mode normalizes with batch statistics, folds them into the
    running averages (in place) and returns the backward cache. Inference
    mode uses the running statistics, is batch-size independent and returns
    no cache. The batch statistics are those of `x.mean` and `x.var`, with
    the channel sum taken once: the centred input x - mean gives both the
    variance and xhat.
    """
    f = x.shape[2]
    mean = _channel_mean(x) if training else running_mean
    xr = _rows(x)
    xhat = np.empty(xr.shape, dtype=np.result_type(xr, mean))  # centred here, scaled below
    tiled_mean = np.tile(mean, f)
    _elementwise(lambda a, out: np.subtract(a, tiled_mean, out=out), xr, xhat)
    if training:
        centred = xhat.reshape(x.shape)
        var = _channel_mean(centred, centred)
        running_mean *= momentum
        running_mean += (1.0 - momentum) * mean
        running_var *= momentum
        running_var += (1.0 - momentum) * var
    else:
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    scale, shift, tiled_gamma = np.tile(inv_std, f), np.tile(beta, f), np.tile(gamma, f)
    y = np.empty(xhat.shape, dtype=np.result_type(gamma, xhat))

    def normalize(xh, out):
        xh *= scale
        np.multiply(tiled_gamma, xh, out=out)
        out += shift

    _elementwise(normalize, xhat, y)
    cache = (xhat.reshape(x.shape), gamma, inv_std) if training else None
    return y.reshape(x.shape), cache


def batchnorm_backward(dy, cache):
    """Returns (dx, dgamma, dbeta) for a training-mode batchnorm_forward.
    Each pair of channel sums runs as two parallel tasks, each sum whole."""
    xhat, gamma, inv_std = cache
    f = dy.shape[-2]
    dgamma, dbeta = _gather(dy.size, lambda: _row_sums(dy, xhat), lambda: _row_sums(dy))
    dy2, xhat2 = _rows(dy), _rows(xhat)
    dxhat = np.empty(dy2.shape, dtype=np.result_type(dy2, gamma))
    tiled_gamma = np.tile(gamma, f)
    _elementwise(lambda d, out: np.multiply(d, tiled_gamma, out=out), dy2, dxhat)
    n = dy.size // dy.shape[-1]
    dxhat4 = dxhat.reshape(dy.shape)
    sum_dxhat, sum_dxhat_xhat = _gather(dy.size, lambda: _row_sums(dxhat4), lambda: _row_sums(dxhat4, xhat))
    # dx = (inv_std / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    t_sum, t_sum_x, scale = np.tile(sum_dxhat, f), np.tile(sum_dxhat_xhat, f), np.tile(inv_std / n, f)

    def combine(d, xh):
        d *= n
        d -= t_sum
        d -= xh * t_sum_x
        np.multiply(scale, d, out=d)

    _elementwise(combine, dxhat, xhat2)
    return dxhat4, dgamma, dbeta


def _elu(x, y):
    """ELU of x into y: max(expm1(min(x, 0)), x)."""
    t = np.minimum(x, 0)
    np.expm1(t, out=t)
    np.maximum(t, x, out=y)


def elu_forward(x, out=None):
    """ELU as max(expm1(min(x, 0)), x); the output is also the cache.

    `out`, any array of x's shape whose batch and time axes merge into one
    (such as a channel slice of a wider buffer), receives the output
    instead of a new array.
    """
    y = np.empty(x.shape, dtype=x.dtype) if out is None else out
    if not np.may_share_memory(_time_rows(y), y):
        raise ValueError("elu_forward: the batch and time axes of out do not merge")
    _elementwise(_elu, x, y)
    return y, y


def _elu_backward(dy, y, dx):
    # the ELU slope is 1 above zero and y + 1 at or below it
    np.minimum(y, 0, out=dx)
    dx += 1
    np.multiply(dy, dx, out=dx)


def elu_backward(dy, y):
    dx = np.empty(y.shape, dtype=y.dtype)
    _elementwise(_elu_backward, dy, y, dx)
    return dx


def _sigmoid(x, y):
    """sigmoid of x into y, as `sigmoid` documents."""
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    np.fmin(x, 0, out=y)
    np.exp(y, out=y)
    y /= den


def sigmoid(x):
    """1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below, as one quotient.

    Neither exponential sees a positive argument, so neither overflows.
    fmin rather than minimum keeps a NaN out of the numerator, so a NaN
    input yields the denominator's NaN, as the two-branch form does.
    """
    y = np.empty(x.shape, dtype=x.dtype)
    _elementwise(_sigmoid, x, y)
    return y


def gated_conv_forward(u, w1, b1, w2, b2, stride: int):
    """Gated convolution v = (u*W1 + b1) (.) sigmoid(u*W2 + b2).

    Both convolution paths read the one input, which already holds any
    zero frequency padding; the Conv-DC block passes a view of its padded
    buffer, so the cache holds that view, not a copy, and
    gated_conv_backward returns the gradient of the whole view.
    """
    m1, c1 = conv_freq_forward(u, w1, b1, stride)
    m2, c2 = conv_freq_forward(u, w2, b2, stride)
    s2 = np.empty(m2.shape, dtype=m2.dtype)
    v = np.empty(m1.shape, dtype=np.result_type(m1, s2))

    def gate(a1, a2, s, out):
        _sigmoid(a2, s)
        np.multiply(a1, s, out=out)

    _elementwise(gate, m1, m2, s2, v)
    return v, (m1, s2, c1, c2)


def gated_conv_backward(dv, cache):
    """Gradient of the masked convolution:
    d(m1 (.) sigma(m2)) = dm1 (.) sigma(m2) + sigma'(m2) dm2 (.) m1,
    chained through both convolutions.

    Returns (du, dw1, db1, dw2, db2).
    """
    if cache is None:
        raise ValueError("gated_conv_backward needs the forward cache")
    m1, s2, c1, c2 = cache
    dm1 = np.empty(dv.shape, dtype=np.result_type(dv, s2))
    dm2 = np.empty(dv.shape, dtype=np.result_type(dv, m1, s2))

    def gate(d, a1, s, d1, d2):
        np.multiply(d, s, out=d1)
        np.multiply(d * a1 * s, 1.0 - s, out=d2)

    _elementwise(gate, dv, m1, s2, dm1, dm2)
    du1, dw1, db1 = conv_freq_backward(dm1, c1)
    du2, dw2, db2 = conv_freq_backward(dm2, c2)
    _elementwise(_add_into, du1, du2)
    return du1, dw1, db1, dw2, db2


def linear_forward(x, w, b):
    """x: [..., D]; w: [D, O]; b: [O]."""
    y = x @ w + b
    return y, (x, w)


def linear_backward(dy, cache):
    x, w = cache
    d, o = w.shape
    dw = x.reshape(-1, d).T @ dy.reshape(-1, o)
    db = _row_sums(dy.reshape(-1, o))
    dx = dy @ w.T
    return dx, dw, db


def layer_norm_forward(x, gain, offset, eps: float):
    """Normalization over the last (feature) axis of [B, T, D]."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = gain * xhat + offset
    return y, (xhat, gain, inv_std)


def layer_norm_backward(dy, cache):
    xhat, gain, inv_std = cache
    d = dy.shape[-1]
    dgain = _row_sums(dy, xhat)
    doffset = _row_sums(dy)
    dxhat = dy * gain
    dx = (inv_std / d) * (
        d * dxhat
        - dxhat.sum(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
    )
    return dx, dgain, doffset
