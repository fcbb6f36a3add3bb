"""Span tracer for the traced benchmark pass, kept outside the program.

`Tracer.install()` wraps every public function and method of the traced
voicedet modules: class methods are patched on the class, and module
functions are rebound in every voicedet module that imported them by name.
`Tracer.restore()` puts the originals back, so untraced passes run exactly
the program's own code. Each wrapped call records one span (name, instance
prefix, start, end, parent span, run id) in memory; a few wrappers also add
counts computed from array shapes at the call boundary (FLOPs, bytes).
`layer_metrics()` turns the spans and counts into the per-layer metrics
listed in `PER_LAYER`.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "voicedet"
TRACED_MODULES = (
    "dsp", "tracker", "labels", "corpus", "training", "cli",
    "nn.ops", "nn.model", "nn.recurrent", "nn.checkpoint",
)
N_BLOCKS = 7  # blocks of the full-size DC-CRN; the reduced model has 2
# Per-block metrics of the result line: the two blocks of the reduced model
# that `train` runs. Blocks 2-6 run only in `detect` and go to the result file.
REPORTED_BLOCKS = 2
N_BLSTM_LAYERS = 2


def _per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = []

    def add(names, unit):
        out.extend((n, unit) for n in names)

    add([f"dsp.{f}.s" for f in ("read_wav", "resample", "design_kaiser_highpass", "apply_fir", "stft")], "s")
    add(["dsp.resample.calls", "dsp.apply_fir.calls"], "count")
    add([f"tracker.{f}.s" for f in ("nccf", "pick_candidates", "viterbi_track")], "s")
    add(["tracker.nccf.calls", "tracker.frames", "tracker.lattice_edges"], "count")
    add([f"labels.{f}.s" for f in ("extract_reference_labels", "write_labels", "read_labels",
                                    "align_for_lowest_vde", "mismatch_rate")], "s")
    add(["labels.extract_reference_labels.self_s"], "s")
    add(["corpus.read_manifest.s", "corpus.scan_corpus.s"], "s")
    add([f"training.{f}.{k}" for f in ("features_for_wave", "train") for k in ("s", "self_s")], "s")
    add([f"training.{f}.s" for f in ("bce_loss", "clip_gradients", "adam_step")], "s")
    add(["training.adam_step.calls"], "count")
    add(["cli.load_examples.s", "cli.load_examples.self_s"], "s")
    add(["nn.checkpoint.load_checkpoint.s", "nn.checkpoint.save_checkpoint.s"], "s")
    add(["nn.model.init.s", "nn.model.load_state.s"], "s")
    for f in ("forward_batch", "backward_batch"):
        add([f"nn.model.{f}.s", f"nn.model.{f}.self_s"], "s")
        add([f"nn.model.{f}.calls"], "count")
    for i in range(REPORTED_BLOCKS):
        add([f"nn.model.block{i}.fwd.self_s", f"nn.model.block{i}.bwd.self_s",
             f"nn.model.block{i}.comp.fwd.s", f"nn.model.block{i}.comp.bwd.s",
             f"nn.model.block{i}.gated.fwd.s", f"nn.model.block{i}.gated.bwd.s"], "s")
    add(["nn.model.concat_bytes", "nn.model.block_cache_bytes"], "B")
    add([f"nn.ops.{f}.s" for f in ("conv_freq_forward", "conv_freq_backward", "batchnorm_forward",
                                    "batchnorm_backward", "elu_forward", "elu_backward",
                                    "linear_forward", "linear_backward")], "s")
    add(["nn.ops.conv_freq_forward.calls", "nn.ops.conv_freq_backward.calls"], "count")
    add(["nn.ops.conv.flop"], "flop")
    add(["nn.ops.conv.column_bytes"], "B")
    add(["nn.ops.conv.gflop_per_s"], "GFLOP/s")
    for j in range(N_BLSTM_LAYERS):
        add([f"nn.recurrent.layer{j}.{d}.{k}" for d in ("fwd", "bwd") for k in ("s", "self_s")], "s")
    add(["nn.recurrent.layer_norm.fwd.s", "nn.recurrent.layer_norm.bwd.s"], "s")
    add(["nn.recurrent.flop"], "flop")
    add(["nn.recurrent.gflop_per_s"], "GFLOP/s")
    add(["nn.recurrent.cache_bytes"], "B")
    add([f"share.{m}" for m in TRACED_MODULES], "%")
    add(["trace.overhead_pct"], "%")
    add(["trace.spans"], "count")
    return out


PER_LAYER = _per_layer_names()


# ---------------------------------------------------------------------------
# Counts computed from array shapes at call boundaries
# ---------------------------------------------------------------------------

def _array_bytes(obj, seen: set) -> int:
    """Bytes of the distinct array buffers reachable through tuples/lists."""
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        return base.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(o, seen) for o in obj)
    return 0


def _count_nccf(counts, args, kwargs, result):
    counts["tracker.frames"] += len(result)


def _count_viterbi(counts, args, kwargs, result):
    cands = args[0]
    counts["tracker.lattice_edges"] += sum(len(a) * len(b) for a, b in zip(cands, cands[1:]))


def _count_conv_forward(counts, args, kwargs, result):
    x, w = args[0], args[1]
    b, t, fo, _ = result[0].shape
    k, c, o = w.shape
    counts["nn.ops.conv.flop"] += 2 * b * t * fo * k * c * o
    counts["nn.ops.conv.column_bytes"] += b * t * fo * k * c * x.dtype.itemsize


def _count_conv_backward(counts, args, kwargs, result):
    dy, cache = args[0], args[1]
    xp, w = cache[0], cache[2]
    b, t, fo, _ = dy.shape
    k, c, o = w.shape
    counts["nn.ops.conv.flop"] += 4 * b * t * fo * k * c * o  # dw and dcols products
    counts["nn.ops.conv.column_bytes"] += b * t * fo * k * c * xp.dtype.itemsize


def _count_block_forward(counts, args, kwargs, result):
    block, x = args[0], args[1]
    b, t, f, c_in = x.shape
    g = block.composites[0].w.shape[2]
    n_layers = len(block.composites)
    channels = sum(c_in + g * l for l in range(1, n_layers + 1))
    counts["nn.model.concat_bytes"] += b * t * f * channels * x.dtype.itemsize
    counts["nn.model.block_cache_bytes"] += _array_bytes(result[1], set())


def _blstm_products(layer, x) -> tuple[int, int]:
    """(forward, backward) matmul FLOPs of one grouped BLSTM layer."""
    b, t, _ = x.shape
    q, g, h, dg = 2 * layer.groups, layer.groups, layer.hidden, layer.dg
    bt = b * t
    inp = 2 * q * bt * dg * 4 * h
    rec = 2 * q * bt * h * 4 * h
    proj = 2 * g * bt * 2 * h * dg
    # backward: dW_x, dz (two input-sized), dW_h, dh per step (two recurrent-sized),
    # dW_proj, dhcat (two projection-sized)
    return inp + rec + proj, 2 * (inp + rec + proj)


def _count_blstm_forward(counts, args, kwargs, result):
    layer, x = args[0], args[1]
    counts["nn.recurrent.flop"] += _blstm_products(layer, x)[0]
    counts["nn.recurrent.cache_bytes"] += _array_bytes(result[1], set())


def _count_blstm_backward(counts, args, kwargs, result):
    layer, dy = args[0], args[1]
    counts["nn.recurrent.flop"] += _blstm_products(layer, dy)[1]


COUNTERS = {
    "tracker.nccf": _count_nccf,
    "tracker.viterbi_track": _count_viterbi,
    "nn.ops.conv_freq_forward": _count_conv_forward,
    "nn.ops.conv_freq_backward": _count_conv_backward,
    "nn.model.ConvDcBlock.forward": _count_block_forward,
    "nn.recurrent.GroupedBlstmLayer.forward": _count_blstm_forward,
    "nn.recurrent.GroupedBlstmLayer.backward": _count_blstm_backward,
}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class Tracer:
    """Records spans while installed; holds them in memory until written."""

    def __init__(self):
        self.spans: list[list] = []  # [name, prefix, start, end, parent, run_id]
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, is_method: bool):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            prefix = getattr(args[0], "prefix", None) if is_method and args else None
            idx = len(spans)
            span = [name, prefix, clock(), None, stack[-1] if stack else -1, self.run_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(short, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped = self._wrap(f"{short}.{attr}", obj, is_method=False)
                    for other in loaded:
                        for alias, value in list(vars(other).items()):
                            if value is obj:
                                self._undo.append((other, alias, obj))
                                setattr(other, alias, wrapped)

    def _patch_class(self, short: str, cls) -> None:
        is_dc = dataclasses.is_dataclass(cls)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and not (attr == "__init__" and not is_dc):
                continue  # dataclass constructors run per frame/candidate: not a layer boundary
            name = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                replacement = type(raw)(self._wrap(name, fn, is_method=False))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                replacement = self._wrap(name, raw, is_method=True)
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        payload = {
            "fields": ["name", "prefix", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def span_times(spans) -> tuple[list[float], list[float], list[bool]]:
    """Per span: duration, self time (duration minus direct children) and
    whether an ancestor has the same name (so inclusive sums skip it)."""
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]
    nested = []
    for s in spans:
        p = s[4]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][4]
        nested.append(p >= 0)
    return dur, self_t, nested


def layer_of(name: str) -> str:
    """Traced module a span name belongs to (longest matching prefix)."""
    return max((m for m in TRACED_MODULES if name.startswith(m + ".")), key=len)


def layer_metrics(spans, counts, pass_wall: float, untraced_wall: float) -> dict[str, float]:
    dur, self_t, nested = span_times(spans)
    incl: dict[tuple, float] = defaultdict(float)
    own: dict[tuple, float] = defaultdict(float)
    calls: Counter = Counter()
    share: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        name, prefix = s[0], s[1]
        keys = [(name, None)]
        if prefix is not None:
            keys.append((name, prefix))
        for key in keys:
            if not nested[i]:
                incl[key] += dur[i]
            own[key] += self_t[i]
            calls[key] += 1
        share[layer_of(name)] += self_t[i]

    def fn(layer, f, kind="s", prefix=None):
        key = (f"{layer}.{f}", prefix)
        return {"s": incl, "self_s": own, "calls": calls}[kind][key]

    def by_prefix(span_name, prefix_start, kind):
        table = incl if kind == "s" else own
        return sum(v for (n, p), v in table.items()
                   if n == span_name and p is not None and p.startswith(prefix_start))

    m: dict[str, float] = {}
    for f in ("read_wav", "resample", "design_kaiser_highpass", "apply_fir", "stft"):
        m[f"dsp.{f}.s"] = fn("dsp", f)
    for f in ("resample", "apply_fir"):
        m[f"dsp.{f}.calls"] = fn("dsp", f, "calls")
    for f in ("nccf", "pick_candidates", "viterbi_track"):
        m[f"tracker.{f}.s"] = fn("tracker", f)
    m["tracker.nccf.calls"] = fn("tracker", "nccf", "calls")
    m["tracker.frames"] = counts.get("tracker.frames", 0)
    m["tracker.lattice_edges"] = counts.get("tracker.lattice_edges", 0)
    for f in ("extract_reference_labels", "write_labels", "read_labels", "align_for_lowest_vde", "mismatch_rate"):
        m[f"labels.{f}.s"] = fn("labels", f)
    m["labels.extract_reference_labels.self_s"] = fn("labels", "extract_reference_labels", "self_s")
    for f in ("read_manifest", "scan_corpus"):
        m[f"corpus.{f}.s"] = fn("corpus", f)
    for f in ("features_for_wave", "train"):
        for k in ("s", "self_s"):
            m[f"training.{f}.{k}"] = fn("training", f, k)
    for f in ("clip_gradients", "adam_step"):
        m[f"training.{f}.s"] = fn("training", f)
    m["training.bce_loss.s"] = fn("nn.model", "bce_loss")  # defined in nn.model, called by training.train
    m["training.adam_step.calls"] = fn("training", "adam_step", "calls")
    for k in ("s", "self_s"):
        m[f"cli.load_examples.{k}"] = fn("cli", "load_examples", k)
    for f in ("load_checkpoint", "save_checkpoint"):
        m[f"nn.checkpoint.{f}.s"] = fn("nn.checkpoint", f)
    m["nn.model.init.s"] = fn("nn.model", "DccrnModel.__init__")
    m["nn.model.load_state.s"] = fn("nn.model", "DccrnModel.load_state")
    for f in ("forward_batch", "backward_batch"):
        for k in ("s", "self_s", "calls"):
            m[f"nn.model.{f}.{k}"] = fn("nn.model", f"DccrnModel.{f}", k)
    for i in range(N_BLOCKS):
        blk = f"block{i}"
        m[f"nn.model.{blk}.fwd.self_s"] = fn("nn.model", "ConvDcBlock.forward", "self_s", blk)
        m[f"nn.model.{blk}.bwd.self_s"] = fn("nn.model", "ConvDcBlock.backward", "self_s", blk)
        for d, meth in (("fwd", "forward"), ("bwd", "backward")):
            m[f"nn.model.{blk}.comp.{d}.s"] = by_prefix(f"nn.model.CompositeLayer.{meth}", f"{blk}.comp", "s")
            m[f"nn.model.{blk}.gated.{d}.s"] = fn("nn.model", f"GatedConv.{meth}", "s", f"{blk}.gated")
    m["nn.model.concat_bytes"] = counts.get("nn.model.concat_bytes", 0)
    m["nn.model.block_cache_bytes"] = counts.get("nn.model.block_cache_bytes", 0)
    for f in ("conv_freq_forward", "conv_freq_backward", "batchnorm_forward", "batchnorm_backward",
              "elu_forward", "elu_backward", "linear_forward", "linear_backward"):
        m[f"nn.ops.{f}.s"] = fn("nn.ops", f)
    for f in ("conv_freq_forward", "conv_freq_backward"):
        m[f"nn.ops.{f}.calls"] = fn("nn.ops", f, "calls")
    conv_s = m["nn.ops.conv_freq_forward.s"] + m["nn.ops.conv_freq_backward.s"]
    m["nn.ops.conv.flop"] = counts.get("nn.ops.conv.flop", 0)
    m["nn.ops.conv.column_bytes"] = counts.get("nn.ops.conv.column_bytes", 0)
    m["nn.ops.conv.gflop_per_s"] = m["nn.ops.conv.flop"] / conv_s / 1e9 if conv_s > 0 else 0.0
    rec_s = 0.0
    for j in range(N_BLSTM_LAYERS):
        lay = f"blstm.layer{j}"
        for d, meth in (("fwd", "forward"), ("bwd", "backward")):
            for k in ("s", "self_s"):
                m[f"nn.recurrent.layer{j}.{d}.{k}"] = fn("nn.recurrent", f"GroupedBlstmLayer.{meth}", k, lay)
            rec_s += m[f"nn.recurrent.layer{j}.{d}.s"]
    m["nn.recurrent.layer_norm.fwd.s"] = fn("nn.ops", "layer_norm_forward")
    m["nn.recurrent.layer_norm.bwd.s"] = fn("nn.ops", "layer_norm_backward")
    m["nn.recurrent.flop"] = counts.get("nn.recurrent.flop", 0)
    m["nn.recurrent.gflop_per_s"] = m["nn.recurrent.flop"] / rec_s / 1e9 if rec_s > 0 else 0.0
    m["nn.recurrent.cache_bytes"] = counts.get("nn.recurrent.cache_bytes", 0)
    for layer in TRACED_MODULES:
        m[f"share.{layer}"] = 100.0 * share[layer] / pass_wall
    m["trace.overhead_pct"] = 100.0 * (pass_wall / untraced_wall - 1.0)
    m["trace.spans"] = len(spans)
    return m
