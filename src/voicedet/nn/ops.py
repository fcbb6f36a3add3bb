"""Array-level forward/backward primitives for the voicing model.

Convolutions act along the frequency axis only (all kernels are 1 in time),
so frame count is preserved everywhere. Convolutional activations are laid
out channels-last as [batch, time, freq, channel]: a convolution is one
matrix product of tap-major columns, copied once from a sliding-window view
of the input, with the kernel, and its input gradient is one product per
tap added into the frequencies that tap read. Recurrent/head stages use
[batch, time, feature]. Every forward returns (output, cache); the matching
backward consumes the cache and returns input/parameter gradients.

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
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_freq_out_size(f: int, kernel: int, stride: int, pad: int) -> int:
    return (f + 2 * pad - kernel) // stride + 1


def _rows(x):
    """[..., F, C] -> [rows, F*C], the layout of every per-channel op."""
    return x.reshape(-1, x.shape[-2] * x.shape[-1])


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


def _im2col(xp, k: int, stride: int, fo: int):
    """[B, T, Fp, C] -> [B, T, Fo, K*C] tap-major columns.

    One copy of the strided window view with the tap axis moved ahead of
    the channels, so column j*C + c holds xp[..., f*stride + j, c].
    """
    b, t, _, c = xp.shape
    windows = sliding_window_view(xp, k, axis=2)[:, :, : (fo - 1) * stride + 1 : stride]
    return np.ascontiguousarray(windows.swapaxes(3, 4)).reshape(b, t, fo, k * c)


def conv_freq_forward(x, w, b, stride: int, pad: int):
    """Convolution with a 1 x K (time x freq) kernel as one matrix product.

    x: [B, T, F, C]; w: [K, C, O]; b: [O] -> y: [B, T, Fo, O]
    """
    f = x.shape[2]
    k, c, o = w.shape
    fo = conv_freq_out_size(f, k, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (0, 0))) if pad else x
    cols = _im2col(xp, k, stride, fo)
    y = (cols.reshape(-1, k * c) @ w.reshape(k * c, o)).reshape(*cols.shape[:3], o)
    rows = _rows(y)
    rows += np.tile(b, fo)
    cache = (xp, f, w, stride, pad)
    return y, cache


def conv_freq_backward(dy, cache):
    """Returns (dx, dw, db) for conv_freq_forward.

    Columns are rebuilt from the cached (padded) input rather than cached,
    keeping activation memory proportional to the input. The input gradient
    needs no column buffer: tap j adds one [N, O] x [O, C] product into the
    frequencies it read, taps in order, so every element sums the same
    length-O dot products in the same order as a scatter of the full
    column gradient would. With one channel that product would be a
    matrix-vector product, which BLAS sums in another order, so all taps
    then share one [N, O] x [O, K] product.
    """
    xp, f_in, w, stride, pad = cache
    k, c, o = w.shape
    fo = dy.shape[2]
    span = (fo - 1) * stride + 1
    dy2 = dy.reshape(-1, o)
    dw = (_im2col(xp, k, stride, fo).reshape(-1, k * c).T @ dy2).reshape(k, c, o)
    db = _row_sums(dy2)
    dxp = np.zeros_like(xp)
    taps = 1 if c > 1 else k
    for j0 in range(0, k, taps):
        dcols = (dy2 @ w[j0 : j0 + taps].reshape(-1, o).T).reshape(*dy.shape[:3], taps, c)
        for j in range(j0, j0 + taps):
            dxp[:, :, j : j + span : stride, :] += dcols[..., j - j0, :]
    dx = dxp[:, :, pad : pad + f_in, :] if pad else dxp
    return dx, dw, db


def batchnorm_forward(x, gamma, beta, running_mean, running_var,
                      momentum: float, eps: float, training: bool,
                      update_stats: bool):
    """Per-channel batch norm over (batch, time, freq) of a [B,T,F,C] tensor.

    Training mode normalizes with batch statistics; update_stats additionally
    folds them into the running averages (in place). Inference mode uses the
    running statistics and is batch-size independent. The batch statistics
    are those of `x.mean` and `x.var`, with the channel sum taken once: the
    centred input x - mean gives both the variance and xhat.
    """
    f = x.shape[2]
    mean = _channel_mean(x) if training else running_mean
    xhat = _rows(x) - np.tile(mean, f)  # centred here, scaled below
    if training:
        centred = xhat.reshape(x.shape)
        var = _channel_mean(centred, centred)
        if update_stats:
            running_mean *= momentum
            running_mean += (1.0 - momentum) * mean
            running_var *= momentum
            running_var += (1.0 - momentum) * var
    else:
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= np.tile(inv_std, f)
    y = np.tile(gamma, f) * xhat
    y += np.tile(beta, f)
    cache = (xhat.reshape(x.shape), gamma, inv_std, training)
    return y.reshape(x.shape), cache


def batchnorm_backward(dy, cache):
    """Returns (dx, dgamma, dbeta)."""
    xhat, gamma, inv_std, training = cache
    f = dy.shape[-2]
    dgamma = _row_sums(dy, xhat)
    dbeta = _row_sums(dy)
    dy2, xhat2 = _rows(dy), _rows(xhat)
    dxhat = dy2 * np.tile(gamma, f)
    if not training:
        dxhat *= np.tile(inv_std, f)
        return dxhat.reshape(dy.shape), dgamma, dbeta
    n = dy.size // dy.shape[-1]
    sum_dxhat = _row_sums(dxhat.reshape(dy.shape))
    sum_dxhat_xhat = _row_sums(dxhat.reshape(dy.shape), xhat)
    # dx = (inv_std / n) * (n * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    dxhat *= n
    dxhat -= np.tile(sum_dxhat, f)
    dxhat -= xhat2 * np.tile(sum_dxhat_xhat, f)
    np.multiply(np.tile(inv_std / n, f), dxhat, out=dxhat)
    return dxhat.reshape(dy.shape), dgamma, dbeta


def elu_forward(x, out=None):
    """ELU as max(expm1(min(x, 0)), x); the output is also the cache.

    `out`, any array of x's shape (such as a channel slice of a wider
    buffer), receives the output instead of a new array.
    """
    y = np.minimum(x, 0)
    np.expm1(y, out=y)
    y = np.maximum(y, x, out=out)
    return y, y


def elu_backward(dy, y):
    # the ELU slope is 1 above zero and y + 1 at or below it
    slope = np.minimum(y, 0)
    slope += 1
    return np.multiply(dy, slope, out=slope)


def sigmoid(x):
    """1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below, as one quotient.

    Neither exponential sees a positive argument, so neither overflows.
    fmin rather than minimum keeps a NaN out of the numerator, so a NaN
    input yields the denominator's NaN, as the two-branch form does.
    """
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    y = np.exp(np.fmin(x, 0))
    y /= den
    return y


def gated_conv_forward(u, w1, b1, w2, b2, stride: int, pad: int):
    """Gated convolution v = (u*W1 + b1) (.) sigmoid(u*W2 + b2).

    The input is padded once and shared by both convolution paths. With
    pad 0 the caller may pass a view of an already padded buffer (as the
    Conv-DC block does); the cache then holds that view, not a copy, and
    gated_conv_backward returns the gradient of the whole view.
    """
    up = np.pad(u, ((0, 0), (0, 0), (pad, pad), (0, 0))) if pad else u
    m1, c1 = conv_freq_forward(up, w1, b1, stride, 0)
    m2, c2 = conv_freq_forward(up, w2, b2, stride, 0)
    s2 = sigmoid(m2)
    v = m1 * s2
    cache = (m1, s2, c1, c2, pad, u.shape[2])
    return v, cache


def gated_conv_backward(dv, cache):
    """Gradient of the masked convolution:
    d(m1 (.) sigma(m2)) = dm1 (.) sigma(m2) + sigma'(m2) dm2 (.) m1,
    chained through both convolutions.

    Returns (du, dw1, db1, dw2, db2).
    """
    if cache is None:
        raise ValueError("gated_conv_backward needs the forward cache")
    m1, s2, c1, c2, pad, f_in = cache
    dm1 = dv * s2
    dm2 = dv * m1 * s2 * (1.0 - s2)
    du1, dw1, db1 = conv_freq_backward(dm1, c1)
    du2, dw2, db2 = conv_freq_backward(dm2, c2)
    du1 += du2
    if pad:
        du1 = du1[:, :, pad : pad + f_in, :]
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
