"""Tests for the deterministic synthetic corpus."""

import numpy as np
import pytest
from conftest import assert_bits_equal
from scipy.signal import sawtooth

from voicedet.corpus import read_manifest, write_manifest
from voicedet.dsp import FrameConfig, InvalidArgument
from voicedet.labels import read_labels
from voicedet.synth import (
    Segment,
    boundary_exclusion_mask,
    generate_synthetic_corpus,
    plan_segments,
    synth_utterance,
    truth_labels,
)
from voicedet.tracker import VoicingLabels

RATES = (8000, 16000, 22050, 44100)
# not a whole number of hops at any of RATES; 0.3037 s is all silence
DURATIONS = (0.3037, 0.9037, 2.0113, 7.3021)


def oracle_mic(rng, segs, n_samples, sample_rate):
    """render_segments with scipy's sawtooth."""
    x = np.zeros(n_samples)
    for s in segs:
        t = np.arange(s.length) / sample_rate
        if s.kind == "sawtooth":
            x[s.start : s.start + s.length] = 0.4 * sawtooth(2.0 * np.pi * s.f0 * t)
        elif s.kind == "noise":
            x[s.start : s.start + s.length] = 0.08 * rng.standard_normal(s.length)
    return x


def oracle_truth(segs, n_samples, frame_cfg, sample_rate):
    """truth_labels as a loop over frames, one mean per voiced frame."""
    hop = frame_cfg.hop
    n_frames = frame_cfg.n_frames(n_samples)
    voiced_samples = np.zeros(n_samples + hop, dtype=np.float64)
    f0_by_sample = np.zeros(n_samples + hop)
    for s in segs:
        if s.kind == "sawtooth":
            voiced_samples[s.start : s.start + s.length] = 1.0
            f0_by_sample[s.start : s.start + s.length] = s.f0
    labels = np.zeros(n_frames, dtype=np.int8)
    f0 = np.zeros(n_frames)
    for t in range(n_frames):
        sl = slice(t * hop, (t + 1) * hop)
        if voiced_samples[sl].mean() > 0.5:
            labels[t] = 1
            vals = f0_by_sample[sl]
            f0[t] = vals[vals > 0].mean()
    return VoicingLabels(labels, hop_ms=1000.0 * hop / sample_rate, f0=f0)


@pytest.mark.parametrize("sample_rate", RATES)
@pytest.mark.parametrize("duration", DURATIONS)
def test_utterance_matches_oracles_bit_for_bit(sample_rate, duration):
    seed, index = 31, 2
    mic, _, truth = synth_utterance(seed, index, duration, sample_rate)
    rng = np.random.default_rng([seed, index])
    n = int(round(duration * sample_rate))
    frame_cfg = FrameConfig.for_rate(sample_rate)
    assert n % frame_cfg.hop != 0  # the last frame is a partial one
    segs = plan_segments(rng, n, sample_rate)
    assert_bits_equal(mic.samples, oracle_mic(rng, segs, n, sample_rate), "mic")
    want = oracle_truth(segs, n, frame_cfg, sample_rate)
    assert_bits_equal(truth.labels, want.labels, "labels")
    assert_bits_equal(truth.f0, want.f0, "f0")
    assert truth.hop_ms == want.hop_ms
    assert truth.labels.any() == (duration > 0.5)


def test_truth_on_a_hand_made_plan():
    # 4-sample frames: 3 of 4 samples sawtooth (voiced), exactly 2 of 4 (not
    # voiced), 3 of 4 again; 0.1 is not the mean of three copies of itself
    segs = [Segment("sawtooth", 0, 3, 0.1), Segment("silence", 3, 3),
            Segment("sawtooth", 6, 5, 0.2), Segment("silence", 11, 1)]
    frame_cfg = FrameConfig(window_len=4, hop=4, fft_size=4)
    got = truth_labels(segs, 12, frame_cfg, 400)
    want = oracle_truth(segs, 12, frame_cfg, 400)
    assert list(got.labels) == [1, 0, 1]
    assert got.f0[0] != 0.1
    assert_bits_equal(got.labels, want.labels, "labels")
    assert_bits_equal(got.f0, want.f0, "f0")


def test_truth_rejects_two_segments_in_one_voiced_frame():
    segs = [Segment("sawtooth", 0, 40, 120.0), Segment("sawtooth", 40, 40, 150.0)]
    with pytest.raises(InvalidArgument, match="two sawtooth segments"):
        truth_labels(segs, 160, FrameConfig.for_rate(8000), 8000)


def test_utterance_determinism():
    a_mic, a_lar, a_truth = synth_utterance(99, 4)
    b_mic, b_lar, b_truth = synth_utterance(99, 4)
    assert np.array_equal(a_mic.samples, b_mic.samples)
    assert np.array_equal(a_lar.samples, b_lar.samples)
    assert np.array_equal(a_truth.labels, b_truth.labels)
    c_mic, _, _ = synth_utterance(99, 5)
    assert not np.array_equal(a_mic.samples, c_mic.samples)


def test_truth_shape_and_band():
    mic, laryn, truth = synth_utterance(1234, 0)
    assert len(truth) == 300  # 3 s at 10 ms hop
    assert truth.hop_ms == 10.0
    voiced_f0 = truth.f0[truth.labels == 1]
    assert voiced_f0.size > 0
    assert np.all((voiced_f0 >= 100.0) & (voiced_f0 <= 300.0))
    # silence-bracketed: no voiced content at the edges
    assert truth.labels[:5].sum() == 0
    assert truth.labels[-5:].sum() == 0


def test_laryn_channel_differs_by_drift():
    mic, laryn, _ = synth_utterance(1234, 1)
    assert not np.array_equal(mic.samples, laryn.samples)
    # drift is low-frequency and bounded
    assert np.max(np.abs(laryn.samples - mic.samples)) < 0.35


def test_boundary_exclusion_mask():
    labels = VoicingLabels(np.array([0, 0, 0, 1, 1, 1, 1, 0, 0, 0], dtype=np.int8))
    keep = boundary_exclusion_mask(labels, margin=2)
    # transition at 2->3 and 6->7: frames within 2 of the edge are dropped
    assert list(keep) == [True, False, False, False, False, False, False, False, False, True]


def test_generate_corpus_layout(tmp_path):
    manifest = generate_synthetic_corpus(tmp_path / "c", n_utterances=4, seed=5)
    assert len(manifest) == 4
    for r in manifest.records:
        assert r.corpus == "synthetic"
        assert r.laryn_path is not None
        assert r.provided_label_path is not None
        assert r.speaker.sex in ("male", "female")
        truth = read_labels(r.provided_label_path)
        assert len(truth) == 300
    # manifest serializes cleanly
    write_manifest(tmp_path / "m.tsv", manifest)
    assert read_manifest(tmp_path / "m.tsv") == manifest


def test_generate_corpus_deterministic(tmp_path):
    m1 = generate_synthetic_corpus(tmp_path / "a", n_utterances=2, seed=11)
    m2 = generate_synthetic_corpus(tmp_path / "b", n_utterances=2, seed=11)
    w1 = (tmp_path / "a" / "mic" / "utt0000.wav").read_bytes()
    w2 = (tmp_path / "b" / "mic" / "utt0000.wav").read_bytes()
    assert w1 == w2
    l1 = (tmp_path / "a" / "labels" / "utt0001.lab").read_bytes()
    l2 = (tmp_path / "b" / "labels" / "utt0001.lab").read_bytes()
    assert l1 == l2
