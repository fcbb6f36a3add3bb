"""The benchmark's span tracer still fits the model's caches.

perfbench/tracer.py counts FLOPs and cache bytes from what the model hands
across call boundaries: `[0]` (the input) and `[2]` (the weights) of a
convolution cache, and `[1]` of each Conv-DC block's and each BLSTM layer's
forward result. A change to that layout would otherwise show only in the
traced benchmark pass.
"""
from collections import Counter

import numpy as np

from test_train_canary import perfbench_module
from voicedet.dsp import FrameConfig
from voicedet.nn.model import ConvDcBlock, DccrnModel, ModelConfig, bce_loss
from voicedet.synth import synth_utterance
from voicedet.tracker import TrackerConfig, nccf, pick_candidates
from voicedet.training import AdamState, adam_step


def test_tracer_counts_a_training_step_and_an_inference_forward():
    tracer_module = perfbench_module("tracer")
    model = DccrnModel(ModelConfig(block_out_channels=(2, 4), composite_growth=4, blstm_hidden=32, groups=4),
                       seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 20, 513, 2)).astype(np.float32)
    labels = rng.random((2, 20)) < 0.5
    original = ConvDcBlock.forward
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert ConvDcBlock.forward is not original
        probs, cache = model.forward_batch(x, training=True)
        grads = model.backward_batch(bce_loss(labels, probs)[1], cache)
        params = model.params()
        adam_step(params, grads, AdamState.for_params(params), lr=1e-3)
        model.forward_batch(x)
    finally:
        tracer.restore()
    assert ConvDcBlock.forward is original
    metrics = tracer_module.layer_metrics(tracer.spans, tracer.counts, pass_wall=1.0, untraced_wall=1.0)
    for name in ("nn.ops.conv.flop", "nn.model.block_cache_bytes", "nn.recurrent.cache_bytes"):
        assert metrics[name] > 0, name
    assert metrics["nn.model.forward_batch.calls"] == 2


def test_every_span_the_tracer_reads_exists():
    """Each per-layer time and call metric reads the spans of one function
    or method by name (`training.features_for_wave`, `cli.load_examples`,
    `nn.model.DccrnModel.forward_batch`, ...). Renaming one would zero its
    metric silently: give every name the tracer wraps one span, under every
    instance prefix a metric reads, and no such metric may stay 0."""
    tracer_module = perfbench_module("tracer")
    tracer = tracer_module.Tracer()
    names = []
    wrap = tracer._wrap

    def recording_wrap(name, fn, is_method):
        names.append(name)
        return wrap(name, fn, is_method)

    tracer._wrap = recording_wrap
    tracer.install()
    tracer.restore()
    prefixes = [None]
    for i in range(tracer_module.N_BLOCKS):
        prefixes += [f"block{i}", f"block{i}.comp0", f"block{i}.gated"]
    prefixes += [f"blstm.layer{j}" for j in range(tracer_module.N_BLSTM_LAYERS)]
    spans = [[name, prefix, 0.0, 1.0, -1, 0] for name in names for prefix in prefixes]
    metrics = tracer_module.layer_metrics(spans, {}, pass_wall=1.0, untraced_wall=1.0)
    read_by_name = [name for name, unit in tracer_module.PER_LAYER if unit == "s" or name.endswith(".calls")]
    assert len(read_by_name) > 60
    assert [name for name in read_by_name if metrics[name] == 0] == []


def test_lattice_edges_count_a_candidate_lattice():
    """`tracker.lattice_edges` reads the lattice that `viterbi_track` gets
    through `len`, slicing and iteration: it must count the same edges as
    the frame lists and as the lattice's own frame offsets."""
    tracer_module = perfbench_module("tracer")
    _, laryn, _ = synth_utterance(3, 0, duration_sec=2.0, sample_rate=8000)
    cfg = TrackerConfig()
    lattice = pick_candidates(nccf(laryn, cfg, FrameConfig.for_rate(8000)), cfg)
    counts = Counter()
    tracer_module._count_viterbi(counts, (lattice, cfg, 8000), {}, None)
    frames = list(lattice)
    sizes = np.diff(lattice.offsets)
    assert max(sizes) > 2
    assert counts["tracker.lattice_edges"] == sum(len(a) * len(b) for a, b in zip(frames, frames[1:]))
    assert counts["tracker.lattice_edges"] == int(sizes[:-1] @ sizes[1:])
