"""Tests for label generation, comparison, alignment, and label files."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import sawtooth

from voicedet import labels as label_io
from voicedet.dsp import InvalidArgument, Waveform, apply_fir, design_kaiser_highpass, resample
from voicedet.labels import (
    LabelComparison,
    SpeakerMeta,
    align_for_lowest_vde,
    extract_reference_labels,
    mismatch_rate,
    read_labels,
    read_labels_as,
    read_three_class_labels,
    write_labels,
)
from voicedet.tracker import VoicingLabels, track_voicing
from voicedet.training import detect_wave

SR = 8000


def labels_of(bits, **kw):
    return VoicingLabels(np.array([int(b) for b in bits], dtype=np.int8), **kw)


class TestExtractReferenceLabels:
    def test_drifting_pulse_train_voiced(self):
        # 100 Hz pulse train with a 2 Hz drift: the high-pass must remove the
        # drift so the pulse region tracks as voiced
        n = 2 * SR
        t = np.arange(n) / SR
        x = np.zeros(n)
        x[::80] = 1.0
        x = x + 0.5 * np.sin(2 * np.pi * 2.0 * t)
        labels = extract_reference_labels(Waveform(x, SR), SpeakerMeta("f0", "female"))
        assert labels.labels[5:-5].mean() >= 0.99

    def test_all_silence_unvoiced(self):
        labels = extract_reference_labels(Waveform(np.zeros(SR), SR), SpeakerMeta("m0", "male"))
        assert np.all(labels.labels == 0)

    def test_unknown_sex_needs_override(self):
        w = Waveform(np.zeros(SR), SR)
        with pytest.raises(InvalidArgument):
            extract_reference_labels(w, SpeakerMeta("x", "unknown"))
        labels = extract_reference_labels(w, SpeakerMeta("x", "unknown"), cutoff_hz=20.0)
        assert len(labels) == 100

    def test_sex_selects_cutoff(self):
        rng = np.random.default_rng(21)
        t = np.arange(2 * SR) / SR
        x = 0.4 * sawtooth(2 * np.pi * 140 * t) + 1e-3 * rng.standard_normal(t.size)
        w = Waveform(x, SR)
        female = extract_reference_labels(w, SpeakerMeta("s", "female"))
        explicit = extract_reference_labels(w, SpeakerMeta("s", "unknown"), cutoff_hz=25.0)
        assert np.array_equal(female.labels, explicit.labels)

    def test_length_matches_stft_frames(self):
        for n in (SR, SR + 13, 3 * SR - 1):
            labels = extract_reference_labels(
                Waveform(np.zeros(n), SR), SpeakerMeta("m", "male")
            )
            assert len(labels) == -(-n // 80)

    def test_highpass_transparent_above_band(self):
        # full-length sawtooth, no sub-50 Hz content: filtering must not
        # change any label
        t = np.arange(2 * SR) / SR
        w = Waveform(0.5 * sawtooth(2 * np.pi * 150.0 * t), SR)
        filtered = extract_reference_labels(w, SpeakerMeta("m", "male"))
        unfiltered = track_voicing(w)
        assert np.array_equal(filtered.labels, unfiltered.labels)

    def test_highpass_designed_once_per_cutoff_and_rate(self, monkeypatch):
        calls = []

        def counting_design(*args):
            calls.append(args)
            return design_kaiser_highpass(*args)

        label_io._reference_highpass.cache_clear()
        monkeypatch.setattr(label_io, "design_kaiser_highpass", counting_design)
        rng = np.random.default_rng(22)
        w = Waveform(rng.standard_normal(SR), SR)
        cached = [extract_reference_labels(w, SpeakerMeta("s", sex)) for sex in ("male", "female") * 3]
        label_io._reference_highpass.cache_clear()
        assert calls == [(5.0, 2400, 15.0, SR), (5.0, 2400, 25.0, SR)]
        for sex, got in zip(("male", "female"), cached):
            filt = design_kaiser_highpass(5.0, 2400, label_io.CUTOFF_HZ[sex], SR)
            want = track_voicing(apply_fir(w, filt))
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.f0.tobytes() == want.f0.tobytes()

    def test_shared_highpass_is_read_only(self):
        filt = label_io._reference_highpass(25.0, SR)
        assert filt is label_io._reference_highpass(25.0, SR)
        with pytest.raises(ValueError):
            filt.taps[0] = 1.0


class TestPseudoLabels:
    def test_voiced_and_noise_segments(self):
        rng = np.random.default_rng(2)
        t = np.arange(SR) / SR
        x = np.concatenate(
            [0.5 * sawtooth(2 * np.pi * 180 * t), 0.1 * rng.standard_normal(SR)]
        )
        labels, _ = detect_wave(Waveform(x, SR), "rapt")
        assert labels.labels[2:98].mean() >= 0.95
        assert labels.labels[102:].mean() <= 0.1

    @pytest.mark.parametrize("rate", [SR, 2 * SR])
    def test_identical_to_track_voicing_at_8khz(self, rate):
        """The tracker's decisions on the 8 kHz signal, as `detect` makes
        them: bit-equal to tracking the input itself when it is at 8 kHz."""
        rng = np.random.default_rng(3)
        t = np.arange(rate) / rate
        w = Waveform(0.5 * sawtooth(2 * np.pi * 180 * t) * (t < 0.5) + 0.1 * rng.standard_normal(rate), rate)
        at_8k = w if rate == SR else resample(w, SR)
        labels, _ = detect_wave(w, "rapt")
        assert np.array_equal(labels.labels, track_voicing(at_8k).labels)


class TestMismatchRate:
    def test_identical(self):
        a = labels_of("10101")
        assert mismatch_rate(a, a).mismatch_rate == 0.0

    def test_complementary(self):
        a = labels_of("1010")
        b = labels_of("0101")
        assert mismatch_rate(a, b).mismatch_rate == 100.0

    def test_one_in_four(self):
        assert mismatch_rate(labels_of("1010"), labels_of("1000")).mismatch_rate == 25.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = VoicingLabels(rng.integers(0, 2, size=50).astype(np.int8))
            b = VoicingLabels(rng.integers(0, 2, size=50).astype(np.int8))
            assert mismatch_rate(a, b) == mismatch_rate(b, a)

    def test_length_slack(self):
        a = labels_of("1010101")
        with pytest.raises(InvalidArgument):
            mismatch_rate(a, labels_of("1010"))  # 3 frames apart
        assert mismatch_rate(a, labels_of("10101")).n_frames == 5  # 2 apart: truncate

    def test_uncertain_frames_excluded(self):
        a = labels_of("1111")
        b = VoicingLabels(
            np.array([1, 0, 1, 1], dtype=np.int8), valid=np.array([True, False, True, True])
        )
        cmp = mismatch_rate(a, b)
        assert cmp.n_frames == 3
        assert cmp.mismatch_rate == 0.0


class TestAlign:
    def test_recovers_shift(self):
        rng = np.random.default_rng(5)
        base = rng.integers(0, 2, size=60).astype(np.int8)
        est = VoicingLabels(base)
        # ref[t] = est[t - 2]: est must move 2 frames later to line up
        ref = VoicingLabels(np.concatenate([[0, 0], base[:-2]]).astype(np.int8))
        shift, cmp = align_for_lowest_vde(est, ref, max_shift=5)
        assert shift == 2
        assert cmp.mismatch_rate == 0.0
        assert cmp.shift_applied == 2

    def test_zero_when_already_aligned(self):
        rng = np.random.default_rng(6)
        a = VoicingLabels(rng.integers(0, 2, size=40).astype(np.int8))
        shift, cmp = align_for_lowest_vde(a, a)
        assert shift == 0
        assert cmp.mismatch_rate == 0.0

    def test_tie_break_on_constant_labels(self):
        a = VoicingLabels(np.ones(30, dtype=np.int8))
        shift, cmp = align_for_lowest_vde(a, a, max_shift=3)
        assert shift == 0

    def test_short_overlap_rejected(self):
        a = labels_of("101010101010")
        with pytest.raises(InvalidArgument):
            align_for_lowest_vde(a, a, max_shift=5)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 300), data=st.data())
    def test_recovers_any_shift_property(self, seed, n, data):
        max_shift = data.draw(st.integers(0, 10), label="max_shift")
        s = data.draw(st.integers(-max_shift, max_shift), label="s")
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 2, size=n).astype(np.int8)
        pad = rng.integers(0, 2, size=abs(s)).astype(np.int8)
        # ref[t + s] = est[t]: est must move s frames later to line up
        ref = np.concatenate([pad, base[: n - s]]) if s >= 0 else np.concatenate([base[-s:], pad])
        shift, cmp = align_for_lowest_vde(VoicingLabels(base), VoicingLabels(ref), max_shift)
        assert shift == cmp.shift_applied == s
        assert cmp.wrong == 0
        assert cmp.n_frames == n - abs(s)


class TestLabelFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        lab = rng.integers(0, 2, size=30).astype(np.int8)
        f0 = np.where(lab == 1, rng.uniform(80, 300, size=30), 0.0)
        labels = VoicingLabels(lab, f0=f0)
        p1 = tmp_path / "a.lab"
        p2 = tmp_path / "b.lab"
        write_labels(p1, labels)
        back = read_labels(p1)
        write_labels(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().startswith("#hop_ms=10\n")
        assert np.array_equal(back.labels, labels.labels)

    def test_header_required(self, tmp_path):
        p = tmp_path / "x.lab"
        p.write_text("0\t1\t100.000\n")
        with pytest.raises(InvalidArgument):
            read_labels(p)

    @pytest.mark.parametrize("rows, lineno, message", [
        ("0 1 3", 4, "frame index 3, expected 2"),    # a frame missing
        ("0 abc", 3, "frame index abc, expected 1"),  # not an integer
        ("-7", 2, "frame index -7, expected 0"),      # negative
        ("0 1 1", 4, "frame index 1, expected 2"),    # repeated
    ])
    def test_frame_index_out_of_sequence_names_file_and_line(self, tmp_path, rows, lineno, message):
        p = tmp_path / "x.lab"
        p.write_text("#hop_ms=10\n" + "".join(f"{i}\t1\t100.000\n" for i in rows.split()))
        with pytest.raises(InvalidArgument, match=re.escape(f"{p}:{lineno}: {message}")):
            read_labels(p)

    def test_three_class_adapter(self, tmp_path):
        p = tmp_path / "k.lab"
        p.write_text("1\n0\n-1\n1\n")
        labels = read_three_class_labels(p)
        assert np.array_equal(labels.labels, [1, 0, 0, 1])
        assert np.array_equal(labels.valid_mask, [True, True, False, True])

    def test_non_utf8_file_names_path(self, tmp_path):
        p = tmp_path / "x.lab"
        p.write_bytes(b"#hop_ms=10\n0\t\xff\t0.000\n")
        for reader in (read_labels, read_three_class_labels):
            with pytest.raises(InvalidArgument, match=re.escape(str(p))):
                reader(p)

    @pytest.mark.parametrize("text, lineno", [("1\n0\n2\n", 3), ("1\n\n-2\n", 3), ("0\nx\n", 2)])
    def test_three_class_bad_value_names_file_and_line(self, tmp_path, text, lineno):
        p = tmp_path / "k.lab"
        p.write_text(text)
        with pytest.raises(InvalidArgument, match=re.escape(f"{p}:{lineno}:")):
            read_three_class_labels(p)

    @settings(max_examples=200)
    @given(
        bits=st.lists(st.integers(0, 1), max_size=60),
        f0=st.lists(st.floats(-1e4, 1e4, allow_nan=False), min_size=60, max_size=60),
        hop_ms=st.sampled_from([10.0, 5.0, 12.5, 0.1, 1e-3]),
        with_f0=st.booleans(),
    )
    def test_write_read_write_is_byte_stable(self, bits, f0, hop_ms, with_f0):
        lab = np.array(bits, dtype=np.int8)
        # f0 must be positive exactly on voiced frames
        f0 = np.array(f0[: lab.size])
        f0 = np.where(lab == 1, np.abs(f0) + 1e-9, -np.abs(f0))
        labels = VoicingLabels(lab, hop_ms=hop_ms, f0=f0 if with_f0 else None)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.lab"), Path(tmp, "b.lab")
            write_labels(first, labels)
            back = read_labels(first)
            write_labels(second, back)
            assert first.read_bytes() == second.read_bytes()
        assert back.labels.tobytes() == lab.tobytes()
        assert back.hop_ms == hop_ms

    def test_reader_registry(self, tmp_path):
        p = tmp_path / "k.lab"
        p.write_text("1\n-1\n")
        labels = read_labels_as(p, "three_class")
        assert labels.valid_mask.sum() == 1
        with pytest.raises(InvalidArgument):
            read_labels_as(p, "nope")


def test_label_comparison_validation():
    with pytest.raises(InvalidArgument):
        LabelComparison(wrong=11, n_frames=10)
    with pytest.raises(InvalidArgument):
        LabelComparison(wrong=0, n_frames=0)
    assert LabelComparison(wrong=3, n_frames=7).mismatch_rate == 100.0 * 3 / 7


def test_voicing_labels_f0_consistency():
    with pytest.raises(InvalidArgument):
        VoicingLabels(np.array([1, 0], dtype=np.int8), f0=np.array([0.0, 100.0]))
