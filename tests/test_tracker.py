"""Tests for the NCCF/dynamic-programming voicing tracker."""

import functools
import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import sawtooth

from voicedet.dsp import FrameConfig, InvalidArgument, Waveform, apply_fir, design_kaiser_highpass
from voicedet.labels import CUTOFF_HZ, KAISER_BETA, KAISER_ORDER
from voicedet.synth import synth_utterance
from voicedet.tracker import (
    _BLOCK,
    _transition_table,
    CandidateLattice,
    NccfFrames,
    PitchCandidate,
    TrackerConfig,
    nccf,
    path_cost,
    pick_candidates,
    track_voicing,
    viterbi_path,
    viterbi_track,
)

SR = 8000


def pulse_train(period, n=SR):
    x = np.zeros(n)
    x[::period] = 1.0
    return Waveform(x, SR)


def frame_cfg():
    return FrameConfig.for_rate(SR)


# ---------------------------------------------------------------------------
# Per-frame reference: one NCCF frame, one sorted() pick and one nested DP
# loop at a time. The block implementation must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def ref_nccf(wave, cfg, fcfg):
    """(lags, per-frame values, per-frame short flags)."""
    x = wave.samples
    sr = wave.sample_rate
    min_lag, max_lag = cfg.lag_range(sr)
    win = int(round(cfg.corr_window_ms * sr / 1000.0))
    hop = fcfg.hop
    n_frames = fcfg.n_frames(x.size) if x.size else 0
    lags = np.arange(min_lag, max_lag + 1)
    span = win + max_lag
    offset = hop // 2 - span // 2
    sq = np.concatenate([[0.0], np.cumsum(x * x)])
    peak = np.max(np.abs(x)) if x.size else 0.0
    floor = (cfg.energy_floor * peak) ** 2 * win
    values, short = [], []
    for t in range(n_frames):
        m = t * hop + offset
        if m < 0 or m + span > x.size:
            values.append(np.zeros(lags.size))
            short.append(True)
            continue
        short.append(False)
        seg = x[m : m + span]
        e0 = sq[m + win] - sq[m]
        if e0 <= 1e-20:
            values.append(np.zeros(lags.size))
            continue
        cross = np.correlate(seg, seg[:win], mode="valid")[min_lag : max_lag + 1]
        starts = m + lags
        energies = sq[starts + win] - sq[starts]
        denom = np.sqrt((e0 + floor) * (energies + floor))
        values.append(np.where(denom > 1e-20, cross / np.maximum(denom, 1e-20), 0.0))
    return lags, values, short


def ref_pick(lags, v, short, cfg):
    candidates = [PitchCandidate(0, cfg.voicing_bias)]
    if short or not v.size:
        return candidates
    left = np.concatenate([[-np.inf], v[:-1]])
    right = np.concatenate([v[1:], [-np.inf]])
    idx = np.nonzero((v > left) & (v >= right) & (v > cfg.nccf_threshold))[0]
    order = sorted(idx, key=lambda i: (-v[i], lags[i]))
    for i in order[: cfg.max_candidates_per_frame]:
        candidates.append(PitchCandidate(int(lags[i]), float(v[i])))
    return candidates


def typed(frames):
    """Frames as nested lists of (type, lag type, lag, score type, score bits):
    equal only when every candidate matches in value and in type."""
    return [[(type(c), type(c.lag), c.lag, type(c.score), c.score.hex()) for c in f] for f in frames]


def ref_transition_cost(prev, cur, cfg):
    if prev.lag > 0 and cur.lag > 0:
        return cfg.octave_jump_weight * abs(math.log2(cur.lag / prev.lag))
    if (prev.lag > 0) != (cur.lag > 0):
        return cfg.switch_cost
    return 0.0


def ref_viterbi_path(candidates, cfg):
    costs = [1.0 - c.score for c in candidates[0]]
    backptr = [[0] * len(candidates[0])]
    for t in range(1, len(candidates)):
        new_costs, pointers = [], []
        for c in candidates[t]:
            best_j, best_cost = 0, math.inf
            for j, p in enumerate(candidates[t - 1]):
                total = costs[j] + ref_transition_cost(p, c, cfg)
                if total < best_cost:
                    best_j, best_cost = j, total
            new_costs.append(best_cost + (1.0 - c.score))
            pointers.append(best_j)
        costs = new_costs
        backptr.append(pointers)
    best = int(np.argmin(costs))
    path = [best]
    for t in range(len(candidates) - 1, 0, -1):
        path.append(backptr[t][path[-1]])
    return path[::-1], costs[best]


def ref_track(wave, cfg):
    """(candidate lattice, labels, f0) of the per-frame reference."""
    lags, values, short = ref_nccf(wave, cfg, frame_cfg())
    lattice = [ref_pick(lags, v, s, cfg) for v, s in zip(values, short)]
    path, _ = ref_viterbi_path(lattice, cfg)
    labels = np.zeros(len(lattice), dtype=np.int8)
    f0 = np.zeros(len(lattice))
    for t, j in enumerate(path):
        if lattice[t][j].lag > 0:
            labels[t] = 1
            f0[t] = SR / lattice[t][j].lag
    return lattice, labels, f0


@functools.lru_cache(maxsize=None)
def oracle_signals():
    """Seven seconds of each signal kind the tracker meets."""
    n = 7 * SR
    signals = {}
    for sex, index in (("male", 0), ("female", 1)):
        mic, laryn, _ = synth_utterance(3, index, duration_sec=n / SR)
        filt = design_kaiser_highpass(KAISER_BETA, KAISER_ORDER, CUTOFF_HZ[sex], SR)
        signals[f"egg_{sex}"] = apply_fir(laryn, filt).samples
        if sex == "male":
            signals["mic"] = mic.samples
    signals["noise"] = np.random.default_rng(17).standard_normal(n)
    signals["silence"] = np.zeros(n)
    # noise bursts between exact zeros longer than one analysis span (320
    # samples), so a block's live frames have gaps; frames 262-519 are all silent
    bursts = signals["noise"].copy()
    for start in range(400, n, 1400):
        bursts[start : start + 1000] = 0.0
    bursts[260 * 80 : 520 * 80] = 0.0
    signals["bursts"] = bursts
    return signals


# 1 frame, fewer than one block, several blocks and not a multiple of the block size
ORACLE_LENGTHS = (80, 80 * 100, 80 * (2 * _BLOCK + 88) + 37)


class TestBlockOracle:
    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    @pytest.mark.parametrize("kind", ["egg_male", "egg_female", "mic", "noise", "silence", "bursts"])
    def test_matches_per_frame_reference(self, kind, n):
        wave = Waveform(oracle_signals()[kind][:n], SR)
        cfg = TrackerConfig()
        frames = nccf(wave, cfg, frame_cfg())
        lags, values, short = ref_nccf(wave, cfg, frame_cfg())
        assert len(frames) == len(values) == frame_cfg().n_frames(n)
        assert np.array_equal(frames.lags, lags)
        assert frames.values.tobytes() == np.stack(values).tobytes()
        assert frames.short.tolist() == short

        lattice, labels, f0 = ref_track(wave, cfg)
        got = list(pick_candidates(frames, cfg))
        assert got == lattice and typed(got) == typed(lattice)
        out = track_voicing(wave, cfg)
        assert out.labels.tobytes() == labels.tobytes()
        assert out.f0.tobytes() == f0.tobytes()

    def test_bursts_leave_gaps_inside_a_block(self):
        x = oracle_signals()["bursts"][: ORACLE_LENGTHS[-1]]
        _, values, short = ref_nccf(Waveform(x, SR), TrackerConfig(), frame_cfg())
        live = np.flatnonzero([v.any() for v in values])
        gaps = np.diff(live) > 1
        assert np.any(gaps & (live[:-1] // _BLOCK == live[1:] // _BLOCK))  # inside one block
        assert not any(v.any() for v in values[262:520]) and live[-1] >= 520
        assert not any(short[t] for t in live)

    def test_voiced_egg_exercises_the_lattice(self):
        wave = Waveform(oracle_signals()["egg_female"], SR)
        lattice, labels, _ = ref_track(wave, TrackerConfig())
        assert max(len(c) for c in lattice) > 3
        assert 0.2 < labels.mean() < 0.9

    def test_empty_lag_band_is_unvoiced(self):
        # no integer lag between 8000/490 = 16.33 and 8000/485 = 16.49
        cfg = TrackerConfig(f0_min=485.0, f0_max=490.0)
        wave = Waveform(oracle_signals()["egg_male"][:8000], SR)
        frames = nccf(wave, cfg, frame_cfg())
        assert frames.values.shape == (100, 0)
        _, labels, _ = ref_track(wave, cfg)
        assert np.all(labels == 0)
        assert np.all(track_voicing(wave, cfg).labels == 0)


class TestNccf:
    def test_pulse_train_peak_at_period(self):
        frames = nccf(pulse_train(80), TrackerConfig(), frame_cfg())
        i = np.where(frames.lags == 80)[0][0]
        for t in range(10, 80):
            assert frames.values[t, i] >= 0.99

    def test_white_noise_is_weakly_correlated(self):
        cfg = TrackerConfig()
        low = 0
        total = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w = Waveform(rng.standard_normal(SR), SR)
            frames = nccf(w, cfg, frame_cfg())
            values = frames.values[~frames.short]
            total += len(values)
            low += int(np.count_nonzero(values.max(axis=1) < 0.6))
        assert low / total >= 0.9

    def test_zero_signal_all_zero(self):
        frames = nccf(Waveform(np.zeros(SR), SR), TrackerConfig(), frame_cfg())
        assert np.all(frames.values == 0)

    def test_short_frames_flagged(self):
        # 50 ms of signal cannot host the 40 ms analysis span anywhere but
        # perhaps the middle frame
        frames = nccf(Waveform(np.ones(400), SR), TrackerConfig(), frame_cfg())
        assert len(frames) == 5
        assert frames.short[0] and frames.short[-1]

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(SR)
        cfg = TrackerConfig()
        a = nccf(Waveform(x, SR), cfg, frame_cfg())
        b = nccf(Waveform(123.45 * x, SR), cfg, frame_cfg())
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_window_under_one_sample_rejected(self):
        with pytest.raises(InvalidArgument, match="corr_window_ms"):
            nccf(pulse_train(80), TrackerConfig(corr_window_ms=0.01), frame_cfg())


class TestPickCandidates:
    def mk_frame(self, values, lags=None, short=False):
        """One-frame NccfFrames holding `values`."""
        values = np.asarray(values, dtype=float)
        if lags is None:
            lags = np.arange(16, 16 + values.size)
        return NccfFrames(np.asarray(lags), values[None], np.array([short]))

    def test_single_peak(self):
        cfg = TrackerConfig()
        values = np.zeros(100)
        values[40] = 0.95
        frame = self.mk_frame(values, lags=np.arange(40, 140))
        cands = pick_candidates(frame, cfg)[0]
        assert len(cands) == 2
        assert cands[0] == PitchCandidate(0, cfg.voicing_bias)
        assert cands[1] == PitchCandidate(80, 0.95)

    def test_all_below_threshold(self):
        frame = self.mk_frame(np.full(50, 0.2))
        cands = pick_candidates(frame, TrackerConfig())[0]
        assert len(cands) == 1
        assert not cands[0].voiced

    def test_plateau_keeps_earliest_lag(self):
        values = np.array([0.1, 0.8, 0.8, 0.8, 0.1])
        frame = self.mk_frame(values, lags=np.arange(20, 25))
        cands = pick_candidates(frame, TrackerConfig())[0]
        assert [c.lag for c in cands if c.voiced] == [21]

    def test_candidate_cap(self):
        rng = np.random.default_rng(0)
        values = np.zeros(200)
        values[1:199:2] = rng.uniform(0.4, 1.0, size=99)  # 99 separated peaks
        frame = self.mk_frame(values)
        cfg = TrackerConfig(max_candidates_per_frame=5)
        cands = pick_candidates(frame, cfg)[0]
        assert len(cands) == 6  # unvoiced + 5
        scores = [c.score for c in cands[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_short_frame_unvoiced_only(self):
        # a clear peak that a short frame must still ignore
        frame = self.mk_frame([0.1, 0.9, 0.1, 0.1], lags=np.arange(16, 20), short=True)
        cands = pick_candidates(frame, TrackerConfig())
        assert len(cands) == 1
        assert len(cands[0]) == 1

    def test_candidates_are_pitch_candidates(self):
        wave = Waveform(oracle_signals()["egg_female"], SR)
        cfg = TrackerConfig()
        lattice = pick_candidates(nccf(wave, cfg, frame_cfg()), cfg)
        picked = [c for frame in lattice for c in frame]
        assert sum(c.voiced for c in picked) > len(lattice)
        for c in picked:
            assert type(c) is PitchCandidate
            assert (c.lag, c.score) == tuple(c) and type(c.lag) is int and type(c.score) is float
            assert c.voiced == (c.lag > 0)

    def test_one_list_per_frame_across_blocks(self):
        n = 2 * _BLOCK + 5
        values = np.zeros((n, 8))
        values[:, 3] = 0.9
        frames = NccfFrames(np.arange(16, 24), values, np.arange(n) % 7 == 0)
        cfg = TrackerConfig()
        got = list(pick_candidates(frames, cfg))
        unvoiced, peak = PitchCandidate(0, cfg.voicing_bias), PitchCandidate(19, 0.9)
        want = [[unvoiced] if t % 7 == 0 else [unvoiced, peak] for t in range(n)]
        assert got == want and typed(got) == typed(want)

    @staticmethod
    def draw_frames(data):
        """(NccfFrames, TrackerConfig) with plateaus, ties and short frames."""
        n_rows = data.draw(st.integers(1, 6), label="rows")
        n_lags = data.draw(st.integers(1, 30), label="lags")
        levels = st.sampled_from([-0.5, 0.0, 0.3, 0.5, 0.5, 0.8, 1.0])
        cell = levels | st.floats(-1.0, 1.0, allow_subnormal=False)
        values = np.array(
            data.draw(st.lists(st.lists(cell, min_size=n_lags, max_size=n_lags),
                               min_size=n_rows, max_size=n_rows), label="values"),
            dtype=float,
        ).reshape(n_rows, n_lags)
        for row in values:  # plateaus of random width at a random level
            start = data.draw(st.integers(0, n_lags - 1))
            width = data.draw(st.integers(0, 4))
            row[start : start + width] = data.draw(levels)
        short = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
        cfg = TrackerConfig(
            nccf_threshold=data.draw(st.sampled_from([-1.0, 0.0, 0.3]) | st.floats(-1.0, 1.0)),
            max_candidates_per_frame=data.draw(st.integers(1, 8)),
        )
        return NccfFrames(np.arange(16, 16 + n_lags), values, short), cfg

    @given(data=st.data())
    def test_block_picker_equals_sorted_reference(self, data):
        frames, cfg = self.draw_frames(data)
        got = list(pick_candidates(frames, cfg))
        want = [ref_pick(frames.lags, v, s, cfg) for v, s in zip(frames.values, frames.short)]
        assert got == want and typed(got) == typed(want)

    @given(data=st.data())
    def test_lattice_round_trips_through_frame_lists(self, data):
        frames, cfg = self.draw_frames(data)
        lattice = pick_candidates(frames, cfg)
        back = CandidateLattice.from_frames(list(lattice))
        for name in ("offsets", "lags", "scores"):
            a, b = getattr(lattice, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestCandidateLattice:
    def lattice(self):
        wave = Waveform(oracle_signals()["egg_female"][: 3 * SR], SR)
        cfg = TrackerConfig()
        return pick_candidates(nccf(wave, cfg, frame_cfg()), cfg)

    def test_frames_start_unvoiced(self):
        lattice = self.lattice()
        assert lattice.offsets[0] == 0 and lattice.offsets[-1] == lattice.lags.size
        assert np.all(lattice.lags[lattice.offsets[:-1]] == 0)
        assert np.all(lattice.scores[lattice.offsets[:-1]] == TrackerConfig().voicing_bias)
        assert lattice.lags.dtype == np.int64 and lattice.scores.dtype == np.float64

    @pytest.mark.parametrize("key", [
        slice(None), slice(1, None), slice(None, -1), slice(5, 40, 3), slice(-7, None, -2),
        slice(50, 50), slice(400, None), 0, 17, -1,
    ])
    def test_indexing_matches_the_frame_list(self, key):
        lattice = self.lattice()
        frames = list(lattice)
        got, want = lattice[key], frames[key]
        if not isinstance(key, slice):
            got, want = [got], [want]
        assert got == want and typed(got) == typed(want)

    def test_frame_index_out_of_range(self):
        lattice = self.lattice()
        with pytest.raises(IndexError):
            lattice[len(lattice)]

    def test_dp_over_the_lattice_equals_nested_loop_reference(self):
        cfg = TrackerConfig()
        lattice = self.lattice()
        path, cost = viterbi_path(lattice, cfg)
        ref_path, ref_cost = ref_viterbi_path(list(lattice), cfg)
        assert path == ref_path and cost.hex() == ref_cost.hex()
        assert path_cost(lattice, path, cfg) == path_cost(list(lattice), path, cfg) == cost

    def test_lattice_code_runs_no_garbage_collection(self):
        """`pick_candidates` and `viterbi_track` keep no Python container per
        frame or candidate alive, so on a 60 s recording the cyclic garbage
        collector never starts."""
        _, laryn, _ = synth_utterance(5, 1, duration_sec=60.0, sample_rate=SR)
        filt = design_kaiser_highpass(KAISER_BETA, KAISER_ORDER, CUTOFF_HZ["female"], SR)
        cfg = TrackerConfig()
        frames = nccf(apply_fir(laryn, filt), cfg, frame_cfg())
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            lattice = pick_candidates(frames, cfg)
            labels = viterbi_track(lattice, cfg, SR)
        finally:
            gc.callbacks.remove(count)
        assert len(lattice) == 6000 and lattice.lags.size > 3 * len(lattice)
        assert 0.2 < labels.labels.mean() < 0.9
        assert collections == []


def brute_force_min_cost(candidates, cfg):
    best_cost = np.inf
    best_path = None
    for path in itertools.product(*[range(len(c)) for c in candidates]):
        c = path_cost(candidates, list(path), cfg)
        if c < best_cost:
            best_cost = c
            best_path = path
    return best_cost, best_path


def random_instance(rng):
    n_frames = int(rng.integers(1, 7))
    frames = []
    for _ in range(n_frames):
        cands = [PitchCandidate(0, float(rng.uniform(0.2, 0.7)))]
        for _ in range(int(rng.integers(0, 4))):
            cands.append(
                PitchCandidate(int(rng.integers(16, 160)), float(rng.uniform(0.0, 1.0)))
            )
        frames.append(cands)
    return frames


class TestViterbi:
    def test_strong_peaks_all_voiced(self):
        cfg = TrackerConfig()
        cands = [[PitchCandidate(0, cfg.voicing_bias), PitchCandidate(80, 0.97)] for _ in range(20)]
        labels = viterbi_track(cands, cfg, SR)
        assert np.all(labels.labels == 1)
        assert np.allclose(labels.f0, 100.0)

    def test_unvoiced_only_candidates(self):
        cfg = TrackerConfig()
        cands = [[PitchCandidate(0, cfg.voicing_bias)] for _ in range(10)]
        labels = viterbi_track(cands, cfg, SR)
        assert np.all(labels.labels == 0)
        assert np.all(labels.f0 == 0)

    def test_matches_exhaustive_search_small(self):
        cfg = TrackerConfig()
        rng = np.random.default_rng(11)
        for _ in range(150):
            inst = random_instance(rng)
            path, cost = viterbi_path(inst, cfg)
            assert path_cost(inst, path, cfg) == pytest.approx(cost, abs=1e-12)
            best_cost, _ = brute_force_min_cost(inst, cfg)
            assert cost == best_cost

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            viterbi_track([], TrackerConfig())

    @pytest.mark.parametrize("lattice", [
        [[PitchCandidate(0, 0.5)], []],
        [[PitchCandidate(0, 0.5), PitchCandidate(-3, 0.9)]],
    ])
    def test_malformed_lattice_rejected(self, lattice):
        with pytest.raises(InvalidArgument):
            viterbi_path(lattice, TrackerConfig())

    def test_transition_table_is_bit_equal(self):
        cfg = TrackerConfig()
        table = _transition_table(cfg.octave_jump_weight, cfg.switch_cost, 256)
        cands = [PitchCandidate(lag, 0.0) for lag in range(256)]
        ref = [[ref_transition_cost(p, c, cfg).hex() for p in cands] for c in cands]
        assert [[v.hex() for v in row] for row in table] == ref

    @given(data=st.data())
    def test_table_dp_equals_nested_loop_reference(self, data):
        # few distinct lags and scores, so equal totals and tie-breaks are common
        lag = st.sampled_from([0, 0, 16, 20, 32, 40, 80, 160, 300]) | st.integers(0, 300)
        score = st.sampled_from([0.0, 0.25, 0.45, 0.5, 0.5, 1.0]) | st.floats(-1.0, 2.0)
        lattice = data.draw(st.lists(
            st.lists(st.builds(PitchCandidate, lag, score), min_size=1, max_size=5),
            min_size=1, max_size=8,
        ))
        cfg = TrackerConfig(
            switch_cost=data.draw(st.sampled_from([0.0, 0.3, 0.5])),
            octave_jump_weight=data.draw(st.sampled_from([0.0, 0.2, 1.0])),
        )
        path, cost = viterbi_path(lattice, cfg)
        ref_path, ref_cost = ref_viterbi_path(lattice, cfg)
        assert path == ref_path
        assert cost.hex() == ref_cost.hex()


class TestTrackVoicing:
    def test_sawtooth_then_silence(self):
        t = np.arange(SR) / SR
        voiced = 0.5 * sawtooth(2 * np.pi * 150.0 * t)
        x = np.concatenate([voiced, np.zeros(SR)])
        labels = track_voicing(Waveform(x, SR), TrackerConfig())
        first = labels.labels[2:98]  # exclude boundary/short frames
        second = labels.labels[102:]
        assert first.mean() >= 0.95
        assert (1 - second).mean() >= 0.99

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(5)
        labels = track_voicing(Waveform(rng.standard_normal(SR), SR), TrackerConfig())
        assert (labels.labels == 0).mean() >= 0.9

    def test_short_input_frame_count(self):
        labels = track_voicing(Waveform(np.ones(400), SR), TrackerConfig())
        assert len(labels) == 5  # ceil(400 / 80)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        w = Waveform(rng.standard_normal(SR), SR)
        a = track_voicing(w, TrackerConfig())
        b = track_voicing(w, TrackerConfig())
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.f0, b.f0)

    def test_monotone_voicing_bias(self):
        t = np.arange(2 * SR) / SR
        rng = np.random.default_rng(13)
        x = 0.4 * sawtooth(2 * np.pi * 120 * t) + 0.2 * rng.standard_normal(t.size)
        w = Waveform(x, SR)
        counts = []
        for bias in (0.2, 0.35, 0.5, 0.65, 0.8):
            labels = track_voicing(w, TrackerConfig(voicing_bias=bias))
            counts.append(int((labels.labels == 0).sum()))
        assert counts == sorted(counts)

    @pytest.mark.parametrize("bias", [0, 1])
    def test_integer_voicing_bias_tracks_as_its_float(self, bias):
        # an int bias (a JSON config can give one) must not make the scores integers
        w = Waveform(oracle_signals()["egg_female"][: 3 * SR], SR)
        as_int, as_float = TrackerConfig(voicing_bias=bias), TrackerConfig(voicing_bias=float(bias))
        lattice = pick_candidates(nccf(w, as_int, frame_cfg()), as_int)
        assert lattice.scores.dtype == np.float64
        assert np.all(lattice.scores[lattice.lags > 0] > as_int.nccf_threshold)
        a, b = track_voicing(w, as_int), track_voicing(w, as_float)
        assert a.labels.tobytes() == b.labels.tobytes() and a.f0.tobytes() == b.f0.tobytes()
        if bias == 0:
            assert a.labels.mean() > 0.5  # a voiced recording tracks voiced


class TestTrackerConfig:
    def test_rejects_bad_band(self):
        with pytest.raises(InvalidArgument):
            TrackerConfig(f0_min=500, f0_max=50)

    @pytest.mark.parametrize("kwargs", [
        {"voicing_bias": float("nan")},
        {"switch_cost": float("nan")},
        {"octave_jump_weight": float("inf")},
        {"nccf_threshold": float("-inf")},
        {"f0_max": float("inf")},
        {"voicing_bias": "0.45"},
        {"corr_window_ms": 0.0},
        {"corr_window_ms": -20.0},
        {"energy_floor": -0.01},
        {"max_candidates_per_frame": 2.5},
        {"max_candidates_per_frame": 0},
        {"max_candidates_per_frame": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidArgument):
            TrackerConfig(**kwargs)

    def test_accepts_integral_values(self):
        cfg = TrackerConfig(f0_min=60, switch_cost=0, energy_floor=0, max_candidates_per_frame=np.int64(3))
        assert cfg.lag_range(SR) == (16, 133)

    def test_lag_range(self):
        lo, hi = TrackerConfig().lag_range(8000)
        assert (lo, hi) == (16, 160)
