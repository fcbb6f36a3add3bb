"""The DC-CRN voicing detector: densely-connected convolutional blocks with
gated downsampling convolutions, a grouped BLSTM stack, and a sigmoid head.

Each Conv-DC block runs four composite layers (1x3 freq convolution, batch
norm, ELU), every one reading the block input and all preceding composite
outputs from one shared channel buffer (the shared-storage layout of
memory-efficient DenseNets), then a gated 1x4 stride-2 convolution halves
the frequency axis. The buffer also carries the zero frequency padding of
the block's convolutions, written once, so each convolution reads (and
caches) a view of it instead of a padded copy. The stacked real/imaginary
STFT feature enters as two channels; activations are held channels-last
([batch, time, freq, channel]) so each kernel tap is a single matrix
product. Time is never padded or strided, so one posterior is produced per
input frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dsp import InvalidArgument, check_field_types, is_integer
from ..tracker import VoicingLabels
from . import ops
from .recurrent import RecurrentStack, uniform

POSTERIOR_EPS = 1e-7

# The paper's fixed Conv-DC geometry: a two-channel real/imaginary STFT input,
# 1x3 composite convolutions and the gated 1x4 stride-2 downsampler, each
# reading PAD zero bins on either side of the frequency axis.
INPUT_CHANNELS = 2
COMPOSITE_KERNEL = 3
GATED_KERNEL = 4
GATED_STRIDE = 2
PAD = 1
BN_MOMENTUM = 0.9
BN_EPS = 1e-5

_POSITIVE_SIZES = (
    "composite_growth", "composite_layers", "blstm_layers", "blstm_hidden", "groups", "input_freq_bins",
)


@dataclass(frozen=True)
class ModelConfig:
    block_out_channels: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)
    composite_growth: int = 8
    composite_layers: int = 4
    blstm_layers: int = 2
    blstm_hidden: int = 512
    groups: int = 4
    input_freq_bins: int = 513
    threshold: float = 0.5
    dtype: str = "float32"

    def __post_init__(self):
        # a JSON list (a config file's, a checkpoint's) becomes the tuple
        object.__setattr__(self, "block_out_channels", tuple(self.block_out_channels))
        check_field_types(self)
        if not (0.0 < self.threshold < 1.0):
            raise InvalidArgument("threshold must be in (0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise InvalidArgument(f"unsupported dtype {self.dtype}")
        if not self.block_out_channels:
            raise InvalidArgument("need at least one block")
        bounds = [(n, getattr(self, n)) for n in _POSITIVE_SIZES]
        bounds += [(f"block_out_channels[{i}]", c) for i, c in enumerate(self.block_out_channels)]
        for name, v in bounds:
            if not is_integer(v) or v < 1:
                raise InvalidArgument(f"{name} must be an integer >= 1, got {v!r}")
        if min(self.freq_chain()) < 1:
            raise InvalidArgument(f"frequency chain {self.freq_chain()} falls below 1 bin")
        if self.flatten_width() % self.groups != 0:
            raise InvalidArgument(
                f"flattened width {self.flatten_width()} not divisible by groups={self.groups}"
            )

    def freq_chain(self) -> list[int]:
        """Frequency bins entering each block plus the final bin count."""
        chain = [self.input_freq_bins]
        for _ in self.block_out_channels:
            chain.append(ops.conv_freq_out_size(chain[-1], GATED_KERNEL, GATED_STRIDE, PAD))
        return chain

    def flatten_width(self) -> int:
        return self.block_out_channels[-1] * self.freq_chain()[-1]

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass(frozen=True)
class VoicingPosterior:
    """Per-frame voicing probabilities, clamped inside (0, 1)."""

    probs: np.ndarray

    def __post_init__(self):
        if np.any(self.probs <= 0.0) or np.any(self.probs >= 1.0):
            raise InvalidArgument("posteriors must lie strictly inside (0, 1)")

    def __len__(self) -> int:
        return self.probs.size


class CompositeLayer:
    """1x3 frequency convolution -> batch norm -> ELU (channels preserved in
    time/freq, growth channels out).

    The input arrives already padded with PAD zero bins on each side of the
    frequency axis, so the output keeps the unpadded size; backward adds the
    gradient of the unpadded input into `into` (in ConvDcBlock, the input's
    channel prefix of the block's gradient buffer). Given `out` (in
    ConvDcBlock, the layer's channel slice of the block buffer), the ELU
    writes its output there, and the ELU cache is that view rather than a
    copy. Only a training forward returns a cache."""

    def __init__(self, prefix, c_in, c_out, cfg: ModelConfig, rng):
        dtype = cfg.np_dtype()
        bound = np.sqrt(6.0 / (c_in * COMPOSITE_KERNEL))
        self.prefix = prefix
        self.w = uniform(rng, bound, (COMPOSITE_KERNEL, c_in, c_out), dtype)
        self.b = np.zeros(c_out, dtype=dtype)
        self.gamma = np.ones(c_out, dtype=dtype)
        self.beta = np.zeros(c_out, dtype=dtype)
        self.running_mean = np.zeros(c_out, dtype=dtype)
        self.running_var = np.ones(c_out, dtype=dtype)

    def params(self):
        yield f"{self.prefix}.w", self.w
        yield f"{self.prefix}.b", self.b
        yield f"{self.prefix}.gamma", self.gamma
        yield f"{self.prefix}.beta", self.beta

    def buffers(self):
        yield f"{self.prefix}.running_mean", self.running_mean
        yield f"{self.prefix}.running_var", self.running_var

    def forward(self, x, training, out=None):
        y, c_conv = ops.conv_freq_forward(x, self.w, self.b, 1)
        y, c_bn = ops.batchnorm_forward(
            y, self.gamma, self.beta, self.running_mean, self.running_var, BN_MOMENTUM, BN_EPS, training,
        )
        y, c_elu = ops.elu_forward(y, out)
        return y, ((c_conv, c_bn, c_elu) if training else None)

    def backward(self, dy, cache, grads, into):
        c_conv, c_bn, c_elu = cache
        dy = ops.elu_backward(dy, c_elu)
        dy, dgamma, dbeta = ops.batchnorm_backward(dy, c_bn)
        dw, db = ops.conv_freq_backward(dy, c_conv, into)
        grads[f"{self.prefix}.w"] = dw
        grads[f"{self.prefix}.b"] = db
        grads[f"{self.prefix}.gamma"] = dgamma
        grads[f"{self.prefix}.beta"] = dbeta


class GatedConv:
    """Gated 1x4 convolution, frequency stride 2: the block's downsampler.

    It takes an input padded with PAD zero bins per side and returns the
    padded input gradient."""

    def __init__(self, prefix, c_in, c_out, cfg: ModelConfig, rng):
        dtype = cfg.np_dtype()
        bound = np.sqrt(6.0 / (c_in * GATED_KERNEL))
        self.prefix = prefix
        self.w1 = uniform(rng, bound, (GATED_KERNEL, c_in, c_out), dtype)
        self.b1 = np.zeros(c_out, dtype=dtype)
        self.w2 = uniform(rng, bound, (GATED_KERNEL, c_in, c_out), dtype)
        self.b2 = np.zeros(c_out, dtype=dtype)

    def params(self):
        yield f"{self.prefix}.w1", self.w1
        yield f"{self.prefix}.b1", self.b1
        yield f"{self.prefix}.w2", self.w2
        yield f"{self.prefix}.b2", self.b2

    def forward(self, x):
        return ops.gated_conv_forward(x, self.w1, self.b1, self.w2, self.b2, GATED_STRIDE)

    def backward(self, dv, cache, grads):
        du, dw1, db1, dw2, db2 = ops.gated_conv_backward(dv, cache)
        grads[f"{self.prefix}.w1"] = dw1
        grads[f"{self.prefix}.b1"] = db1
        grads[f"{self.prefix}.w2"] = dw2
        grads[f"{self.prefix}.b2"] = db2
        return du


class ConvDcBlock:
    """Densely-connected composite layers plus the gated downsampler.

    All layers share one [B, T, F + 2*PAD, C_in + L*growth] channel buffer:
    the input fills the first C_in channels and composite l writes its
    output once into the next growth channels, all in the F interior bins,
    and the pad bins are zeroed once. The composite's ELU writes that output
    directly, and the slice is also the ELU's backward cache, so no
    composite output is copied or held twice. Layer l reads the channel
    prefix [input, out_1, ..., out_{l-1}] and the gated convolution the whole
    buffer, pad bins included, so no convolution copies or caches a padded
    input.
    The backward pass mirrors this: the gated convolution's padded input
    gradient is the block's gradient buffer, and each composite's input
    gradient chunks add their interior bins into that buffer's prefix, so
    no composite input gradient exists whole. Pad bin gradients are never
    read; only the interior input slice is returned. Each cache slot is
    set to None once its backward has run. An inference forward keeps no
    cache: the composites return none, and the block returns None.
    """

    def __init__(self, prefix, c_in, c_out, cfg: ModelConfig, rng):
        self.prefix = prefix
        self.c_in = c_in
        self.growth = g = cfg.composite_growth
        self.composites = [
            CompositeLayer(f"{prefix}.comp{l}", c_in + g * l, g, cfg, rng)
            for l in range(cfg.composite_layers)
        ]
        self.gated = GatedConv(
            f"{prefix}.gated", c_in + g * cfg.composite_layers, c_out, cfg, rng
        )

    def params(self):
        for comp in self.composites:
            yield from comp.params()
        yield from self.gated.params()

    def buffers(self):
        for comp in self.composites:
            yield from comp.buffers()

    def forward(self, x, training):
        b, t, f, c = x.shape
        g = self.growth
        buf = np.empty(
            (b, t, f + 2 * PAD, c + g * len(self.composites)),
            dtype=np.result_type(x, self.gated.w1),
        )
        buf[:, :, :PAD] = 0
        buf[:, :, PAD + f :] = 0
        inner = buf[:, :, PAD : PAD + f]
        ops._elementwise(np.copyto, inner[..., :c], x)
        comp_caches = []
        for comp in self.composites:
            _, cache = comp.forward(buf[..., :c], training, inner[..., c : c + g])
            comp_caches.append(cache)
            c += g
        v, gated_cache = self.gated.forward(buf)
        return v, ([comp_caches, gated_cache] if training else None)

    def backward(self, dv, cache, grads):
        dbuf = self.gated.backward(dv, cache[1], grads)
        cache[1] = None
        comp_caches = cache[0]
        g = self.growth
        dinner = dbuf[:, :, PAD : dbuf.shape[2] - PAD]
        for l in range(len(self.composites) - 1, -1, -1):
            c = self.c_in + g * l
            self.composites[l].backward(dinner[..., c : c + g], comp_caches[l], grads, dinner[..., :c])
            comp_caches[l] = None
        # a copy, so the whole padded buffer gradient is freed before the
        # previous block's backward
        return dinner[..., : self.c_in].copy()


class DccrnModel:
    """Forward/backward of the full detector; parameters live in plain numpy
    arrays updated in place by the optimizer. The weights are drawn from
    `seed`; with seed None they are zeros, for `from_state` to fill."""

    def __init__(self, cfg: ModelConfig, seed: int | None = 0):
        self.cfg = cfg
        rng = None if seed is None else np.random.default_rng(seed)
        dtype = cfg.np_dtype()
        self.blocks = []
        c_in = INPUT_CHANNELS
        for i, c_out in enumerate(cfg.block_out_channels):
            self.blocks.append(ConvDcBlock(f"block{i}", c_in, c_out, cfg, rng))
            c_in = c_out
        width = cfg.flatten_width()
        self.recurrent = RecurrentStack(
            "blstm", width, cfg.groups, cfg.blstm_hidden, cfg.blstm_layers, rng, dtype
        )
        bound = np.sqrt(6.0 / width)
        self.head_w = uniform(rng, bound, (width, 1), dtype)
        self.head_b = np.zeros(1, dtype=dtype)

    @classmethod
    def from_state(cls, cfg: ModelConfig, params: dict[str, np.ndarray],
                   buffers: dict[str, np.ndarray]) -> "DccrnModel":
        """The model holding these arrays (a checkpoint's), built without
        drawing the random init that load_state would overwrite."""
        model = cls(cfg, seed=None)
        model.load_state(params, buffers)
        return model

    # -- parameter plumbing ------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for block in self.blocks:
            out.update(block.params())
        out.update(self.recurrent.params())
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for block in self.blocks:
            out.update(block.buffers())
        return out

    def load_state(self, params: dict[str, np.ndarray], buffers: dict[str, np.ndarray]):
        """Copy arrays into the model; names, shapes and dtypes must match exactly."""
        for given, own in ((params, self.params()), (buffers, self.buffers())):
            if set(given) != set(own):
                differing = set(own) ^ set(given)
                raise InvalidArgument(f"architecture mismatch: differing arrays {sorted(differing)[:5]}")
            for name, arr in given.items():
                if (own[name].shape, own[name].dtype) != (arr.shape, arr.dtype):
                    raise InvalidArgument(
                        f"architecture mismatch: {name} is {arr.dtype} {arr.shape}, "
                        f"expected {own[name].dtype} {own[name].shape}"
                    )
                own[name][...] = arr

    # -- forward / backward -------------------------------------------------

    def forward_batch(self, x, training: bool = False):
        """x: [B, T, F, C] (channels-last) -> (probs [B, T] (clamped), cache).

        Training uses batch statistics, folds them into the running ones and
        returns the backward cache. Inference uses the running statistics and
        returns None, each block's and BLSTM layer's cache dropped before the
        next one runs."""
        x = np.ascontiguousarray(x, dtype=self.cfg.np_dtype())
        if x.shape[3] != INPUT_CHANNELS or x.shape[2] != self.cfg.input_freq_bins:
            raise InvalidArgument(
                f"input shape {x.shape} does not match config "
                f"(freq={self.cfg.input_freq_bins}, channels={INPUT_CHANNELS})"
            )
        caches = []
        for block in self.blocks:
            x, cache = block.forward(x, training)
            caches.append(cache)
        b, t, f, c = x.shape
        # channel-major flatten: feature index = channel * F + freq bin
        flat = x.transpose(0, 1, 3, 2).reshape(b, t, c * f)
        rec, rec_cache = self.recurrent.forward(flat, training)
        logits, lin_cache = ops.linear_forward(rec, self.head_w, self.head_b)
        logits = logits[..., 0]
        probs_raw = ops.sigmoid(logits)
        probs = np.clip(probs_raw, POSTERIOR_EPS, 1.0 - POSTERIOR_EPS)
        if not training:
            return probs, None
        clamp_mask = (probs_raw > POSTERIOR_EPS) & (probs_raw < 1.0 - POSTERIOR_EPS)
        cache = (caches, (b, t, f, c), rec_cache, lin_cache, probs_raw, clamp_mask)
        return probs, cache

    def backward_batch(self, dprobs, cache) -> dict[str, np.ndarray]:
        """dprobs: [B, T] gradient w.r.t. the clamped posterior. Each block's
        and BLSTM layer's cache slot is set to None once it is consumed."""
        caches, conv_shape, rec_cache, lin_cache, probs_raw, clamp_mask = cache
        grads: dict[str, np.ndarray] = {}
        dlogits = dprobs * clamp_mask * probs_raw * (1.0 - probs_raw)
        drec, dw, db = ops.linear_backward(dlogits[..., None], lin_cache)
        grads["head.w"] = dw
        grads["head.b"] = db
        dflat = self.recurrent.backward(drec, rec_cache, grads)
        b, t, f, c = conv_shape
        dx = dflat.reshape(b, t, c, f).transpose(0, 1, 3, 2)
        for i in range(len(self.blocks) - 1, -1, -1):
            dx = self.blocks[i].backward(dx, caches[i], grads)
            caches[i] = None
        return grads


def bce_loss(y, probs) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the posterior.

    y and probs share any shape; probs are assumed clamped inside (0, 1).
    """
    y = np.asarray(y, dtype=probs.dtype)
    if y.shape != probs.shape:
        raise InvalidArgument(f"label shape {y.shape} != posterior shape {probs.shape}")
    n = probs.size
    loss = float(-(y * np.log(probs) + (1.0 - y) * np.log1p(-probs)).sum() / n)
    grad = (probs - y) / (probs * (1.0 - probs) * n)
    return loss, grad


def decide_voicing(posterior: VoicingPosterior | np.ndarray, threshold: float = 0.5) -> VoicingLabels:
    """Voiced iff probability strictly exceeds the threshold."""
    if not (0.0 < threshold < 1.0):
        raise InvalidArgument("threshold must be in (0, 1)")
    probs = posterior.probs if isinstance(posterior, VoicingPosterior) else np.asarray(posterior)
    return VoicingLabels((probs > threshold).astype(np.int8))


def count_params(params) -> int:
    """Exact number of scalars in a parameter dict or (name, array) iterable."""
    if isinstance(params, dict):
        arrays = params.values()
    else:
        arrays = [a for _, a in params]
    return int(sum(a.size for a in arrays))
