"""Tests for the NCCF/dynamic-programming voicing tracker."""

import functools
import gc
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.signal import sawtooth

from voicedet.dsp import FrameConfig, InvalidArgument, Waveform, apply_fir, design_kaiser_highpass
from voicedet.labels import CUTOFF_HZ, KAISER_BETA, KAISER_ORDER
from voicedet import tracker
from voicedet.synth import synth_utterance
from voicedet.tracker import (
    _BLOCK,
    _transition_table,
    CORR_WINDOW_MS,
    ENERGY_FLOOR,
    MAX_CANDIDATES,
    NCCF_THRESHOLD,
    OCTAVE_JUMP_WEIGHT,
    SWITCH_COST,
    VOICING_BIAS,
    CandidateLattice,
    NccfFrames,
    PitchCandidate,
    lag_range,
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

def ref_nccf(wave, fcfg):
    """(lags, per-frame values, per-frame short flags)."""
    x = wave.samples
    sr = wave.sample_rate
    min_lag, max_lag = lag_range(sr)
    win = int(round(CORR_WINDOW_MS * sr / 1000.0))
    hop = fcfg.hop
    n_frames = fcfg.n_frames(x.size) if x.size else 0
    lags = np.arange(min_lag, max_lag + 1)
    span = win + max_lag
    offset = hop // 2 - span // 2
    sq = np.concatenate([[0.0], np.cumsum(x * x)])
    peak = np.max(np.abs(x)) if x.size else 0.0
    floor = (ENERGY_FLOOR * peak) ** 2 * win
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


def ref_pick(lags, v, short):
    candidates = [PitchCandidate(0, VOICING_BIAS)]
    if short or not v.size:
        return candidates
    left = np.concatenate([[-np.inf], v[:-1]])
    right = np.concatenate([v[1:], [-np.inf]])
    idx = np.nonzero((v > left) & (v >= right) & (v > NCCF_THRESHOLD))[0]
    order = sorted(idx, key=lambda i: (-v[i], lags[i]))
    for i in order[:MAX_CANDIDATES]:
        candidates.append(PitchCandidate(int(lags[i]), float(v[i])))
    return candidates


def typed(frames):
    """Frames as nested lists of (type, lag type, lag, score type, score bits):
    equal only when every candidate matches in value and in type."""
    return [[(type(c), type(c.lag), c.lag, type(c.score), c.score.hex()) for c in f] for f in frames]


def ref_transition_cost(prev, cur):
    if prev.lag > 0 and cur.lag > 0:
        return OCTAVE_JUMP_WEIGHT * abs(math.log2(cur.lag / prev.lag))
    if (prev.lag > 0) != (cur.lag > 0):
        return SWITCH_COST
    return 0.0


def ref_viterbi_path(candidates):
    costs = [1.0 - c.score for c in candidates[0]]
    backptr = [[0] * len(candidates[0])]
    for t in range(1, len(candidates)):
        new_costs, pointers = [], []
        for c in candidates[t]:
            best_j, best_cost = 0, math.inf
            for j, p in enumerate(candidates[t - 1]):
                total = costs[j] + ref_transition_cost(p, c)
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


def ref_track(wave):
    """(candidate lattice, labels, f0) of the per-frame reference."""
    lags, values, short = ref_nccf(wave, frame_cfg())
    lattice = [ref_pick(lags, v, s) for v, s in zip(values, short)]
    path, _ = ref_viterbi_path(lattice)
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
        frames = nccf(wave, frame_cfg())
        lags, values, short = ref_nccf(wave, frame_cfg())
        assert len(frames) == len(values) == frame_cfg().n_frames(n)
        assert np.array_equal(frames.lags, lags)
        assert frames.values.tobytes() == np.stack(values).tobytes()
        assert frames.short.tolist() == short

        lattice, labels, f0 = ref_track(wave)
        got = list(pick_candidates(frames))
        assert got == lattice and typed(got) == typed(lattice)
        out = track_voicing(wave)
        assert out.labels.tobytes() == labels.tobytes()
        assert out.f0.tobytes() == f0.tobytes()

    def test_bursts_leave_gaps_inside_a_block(self):
        x = oracle_signals()["bursts"][: ORACLE_LENGTHS[-1]]
        _, values, short = ref_nccf(Waveform(x, SR), frame_cfg())
        live = np.flatnonzero([v.any() for v in values])
        gaps = np.diff(live) > 1
        assert np.any(gaps & (live[:-1] // _BLOCK == live[1:] // _BLOCK))  # inside one block
        assert not any(v.any() for v in values[262:520]) and live[-1] >= 520
        assert not any(short[t] for t in live)

    def test_voiced_egg_exercises_the_lattice(self):
        wave = Waveform(oracle_signals()["egg_female"], SR)
        lattice, labels, _ = ref_track(wave)
        assert max(len(c) for c in lattice) > 3
        assert 0.2 < labels.mean() < 0.9


# frame counts around the block size; a whole block without a live frame; a
# recording of 5 frames, the first two and the last two short
BOUNDARY_CASES = {
    "T=1": ("egg_female", 80),
    "T=255": ("egg_female", 80 * 255),
    "T=256": ("egg_female", 80 * 256),
    "T=257": ("egg_female", 80 * 257),
    "T=257, partial frame": ("egg_female", 80 * 256 + 37),
    "T=513": ("egg_female", 80 * 513),
    "dead block": ("dead block", 80 * 800),
    "short first and last frames": ("egg_female", 400),
}


def boundary_signal(case):
    kind, n = BOUNDARY_CASES[case]
    if kind != "dead block":
        return oracle_signals()[kind][:n]
    x = oracle_signals()["egg_female"][:n].copy()
    x[250 * 80 : 520 * 80] = 0.0  # frames 252-517 read only zeros: all of block 1
    return x


class TestBlockBoundaries:
    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_values_equal_the_per_frame_reference(self, case):
        wave = Waveform(boundary_signal(case), SR)
        _, values, short = ref_nccf(wave, frame_cfg())
        values = np.stack(values)
        frames = nccf(wave, frame_cfg())
        assert frames.values.tobytes() == values.tobytes()
        assert frames.short.tolist() == short and len(frames) == len(values)
        if case == "dead block":
            assert not np.any(values[_BLOCK : 2 * _BLOCK]) and np.any(values[2 * _BLOCK :])
        if case == "short first and last frames":
            assert short == [True, True, False, True, True]

    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_lattice_equals_the_lattice_of_the_values(self, case):
        wave = Waveform(boundary_signal(case), SR)
        lags, values, short = ref_nccf(wave, frame_cfg())
        got = pick_candidates(nccf(wave, frame_cfg()))
        want = pick_candidates(NccfFrames.from_values(lags, np.stack(values), short))
        for name in ("offsets", "lags", "scores"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("case", BOUNDARY_CASES)
    def test_block_energies_equal_the_whole_signal_sums(self, case):
        x = boundary_signal(case)
        min_lag, max_lag = lag_range(SR)
        win = int(round(CORR_WINDOW_MS * SR / 1000.0))
        hop, span = frame_cfg().hop, win + max_lag
        starts = np.arange(frame_cfg().n_frames(x.size)) * hop + (hop // 2 - span // 2)
        sq = np.concatenate([[0.0], np.cumsum(x * x)])
        energy = sq[win:] - sq[:-win]
        blocks = list(tracker._window_energies(x, starts, span, win))
        assert len(blocks) == -(-starts.size // _BLOCK)
        for lo, (a, e) in zip(range(0, starts.size, _BLOCK), blocks):
            assert e.tobytes() == energy[a : a + e.size].tobytes()
            # every window of the block's frames inside the signal is there
            inside = [m for m in starts[lo : lo + _BLOCK] if m >= 0 and m + span <= x.size]
            assert all(a <= m and m + max_lag < a + e.size for m in inside)


class TestNccf:
    def test_pulse_train_peak_at_period(self):
        frames = nccf(pulse_train(80), frame_cfg())
        i = np.where(frames.lags == 80)[0][0]
        for t in range(10, 80):
            assert frames.values[t, i] >= 0.99

    def test_white_noise_is_weakly_correlated(self):
        low = 0
        total = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w = Waveform(rng.standard_normal(SR), SR)
            frames = nccf(w, frame_cfg())
            values = frames.values[~frames.short]
            total += len(values)
            low += int(np.count_nonzero(values.max(axis=1) < 0.6))
        assert low / total >= 0.9

    def test_zero_signal_all_zero(self):
        frames = nccf(Waveform(np.zeros(SR), SR), frame_cfg())
        assert np.all(frames.values == 0)

    def test_short_frames_flagged(self):
        # 50 ms of signal cannot host the 40 ms analysis span anywhere but
        # perhaps the middle frame
        frames = nccf(Waveform(np.ones(400), SR), frame_cfg())
        assert len(frames) == 5
        assert frames.short[0] and frames.short[-1]

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(SR)
        a = nccf(Waveform(x, SR), frame_cfg())
        b = nccf(Waveform(123.45 * x, SR), frame_cfg())
        assert np.allclose(a.values, b.values, atol=1e-9)


LEVELS = [-0.5, 0.0, NCCF_THRESHOLD, 0.5, 0.5, 0.8, 1.0]


@st.composite
def nccf_frames(draw):
    """NccfFrames with plateaus, ties, short frames, values at
    NCCF_THRESHOLD and, in comb rows, more peaks than MAX_CANDIDATES."""
    n_rows = draw(st.integers(1, 6), label="rows")
    n_lags = draw(st.integers(1, 3 * MAX_CANDIDATES), label="lags")
    levels = st.sampled_from(LEVELS)
    cell = levels | st.floats(-1.0, 1.0, allow_subnormal=False)
    values = np.array(
        draw(st.lists(st.lists(cell, min_size=n_lags, max_size=n_lags),
                      min_size=n_rows, max_size=n_rows), label="values"),
        dtype=float,
    ).reshape(n_rows, n_lags)
    for row in values:
        if draw(st.booleans(), label="comb"):  # every odd lag a peak, at or above NCCF_THRESHOLD
            row[::2] = -1.0
            row[1::2] = np.minimum(NCCF_THRESHOLD + np.abs(row[1::2]), 1.0)
        # a plateau of random width at a random level
        start = draw(st.integers(0, n_lags - 1))
        width = draw(st.integers(0, 4))
        row[start : start + width] = draw(levels)
    short = np.array(draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)))
    return NccfFrames.from_values(np.arange(16, 16 + n_lags), values, short)


def crowded_frames():
    """Four rows of 64 lags: a comb of 32 peaks, 26 above NCCF_THRESHOLD
    with ties across the cap and 6 exactly at it; the same comb short; a
    plateau at NCCF_THRESHOLD; a comb of fewer peaks than the cap."""
    comb = np.full(64, -1.0)
    comb[1::2] = np.resize([NCCF_THRESHOLD, 0.5, 0.8, 0.5, 1.0, np.nextafter(NCCF_THRESHOLD, 1.0)], 32)
    sparse = np.full(64, -1.0)
    sparse[1::4] = np.resize([0.5, 0.9, NCCF_THRESHOLD], 16)
    values = np.stack([comb, comb, np.full(64, NCCF_THRESHOLD), sparse])
    return NccfFrames.from_values(np.arange(16, 80), values, np.array([False, True, False, False]))


class TestPickCandidates:
    def mk_frame(self, values, lags=None, short=False):
        """One-frame NccfFrames holding `values`."""
        values = np.asarray(values, dtype=float)
        if lags is None:
            lags = np.arange(16, 16 + values.size)
        return NccfFrames.from_values(np.asarray(lags), values[None], np.array([short]))

    def test_single_peak(self):
        values = np.zeros(100)
        values[40] = 0.95
        frame = self.mk_frame(values, lags=np.arange(40, 140))
        cands = pick_candidates(frame)[0]
        assert len(cands) == 2
        assert cands[0] == PitchCandidate(0, VOICING_BIAS)
        assert cands[1] == PitchCandidate(80, 0.95)

    def test_all_below_threshold(self):
        frame = self.mk_frame(np.full(50, 0.2))
        cands = pick_candidates(frame)[0]
        assert len(cands) == 1
        assert not cands[0].voiced

    def test_plateau_keeps_earliest_lag(self):
        values = np.array([0.1, 0.8, 0.8, 0.8, 0.1])
        frame = self.mk_frame(values, lags=np.arange(20, 25))
        cands = pick_candidates(frame)[0]
        assert [c.lag for c in cands if c.voiced] == [21]

    def test_candidate_cap(self):
        rng = np.random.default_rng(0)
        values = np.zeros(200)
        values[1:199:2] = rng.uniform(0.4, 1.0, size=99)  # 99 separated peaks
        frame = self.mk_frame(values)
        cands = pick_candidates(frame)[0]
        assert len(cands) == 1 + MAX_CANDIDATES
        scores = [c.score for c in cands[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_short_frame_unvoiced_only(self):
        # a clear peak that a short frame must still ignore
        frame = self.mk_frame([0.1, 0.9, 0.1, 0.1], lags=np.arange(16, 20), short=True)
        cands = pick_candidates(frame)
        assert len(cands) == 1
        assert len(cands[0]) == 1

    def test_candidates_are_pitch_candidates(self):
        wave = Waveform(oracle_signals()["egg_female"], SR)
        lattice = pick_candidates(nccf(wave, frame_cfg()))
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
        frames = NccfFrames.from_values(np.arange(16, 24), values, np.arange(n) % 7 == 0)
        got = list(pick_candidates(frames))
        unvoiced, peak = PitchCandidate(0, VOICING_BIAS), PitchCandidate(19, 0.9)
        want = [[unvoiced] if t % 7 == 0 else [unvoiced, peak] for t in range(n)]
        assert got == want and typed(got) == typed(want)

    def test_crowded_frames_hold_the_cap_and_the_threshold(self):
        frames = crowded_frames()
        # in the comb rows 0, 1 and 3 every value above NCCF_THRESHOLD is a peak
        above = np.count_nonzero(frames.values > NCCF_THRESHOLD, axis=1).tolist()
        assert above == [26, 26, 0, 11] and 26 > MAX_CANDIDATES > 11
        assert np.all(np.any(frames.values == NCCF_THRESHOLD, axis=1))
        got = list(pick_candidates(frames))
        assert [len(f) for f in got] == [1 + MAX_CANDIDATES, 1, 1, 12]
        assert all(c.score > NCCF_THRESHOLD for f in got for c in f if c.voiced)

    @example(frames=crowded_frames())
    @given(frames=nccf_frames())
    def test_block_picker_equals_sorted_reference(self, frames):
        got = list(pick_candidates(frames))
        want = [ref_pick(frames.lags, v, s) for v, s in zip(frames.values, frames.short)]
        assert got == want and typed(got) == typed(want)

    @example(frames=crowded_frames())
    @given(frames=nccf_frames())
    def test_lattice_round_trips_through_frame_lists(self, frames):
        lattice = pick_candidates(frames)
        back = CandidateLattice.from_frames(list(lattice))
        for name in ("offsets", "lags", "scores"):
            a, b = getattr(lattice, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestCandidateLattice:
    def lattice(self):
        wave = Waveform(oracle_signals()["egg_female"][: 3 * SR], SR)
        return pick_candidates(nccf(wave, frame_cfg()))

    def test_frames_start_unvoiced(self):
        lattice = self.lattice()
        assert lattice.offsets[0] == 0 and lattice.offsets[-1] == lattice.lags.size
        assert np.all(lattice.lags[lattice.offsets[:-1]] == 0)
        assert np.all(lattice.scores[lattice.offsets[:-1]] == VOICING_BIAS)
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
        lattice = self.lattice()
        path, cost = viterbi_path(lattice)
        ref_path, ref_cost = ref_viterbi_path(list(lattice))
        assert path == ref_path and cost.hex() == ref_cost.hex()
        assert path_cost(lattice, path) == path_cost(list(lattice), path) == cost

    def test_lattice_code_runs_no_garbage_collection(self):
        """`pick_candidates` and `viterbi_track` keep no Python container per
        frame or candidate alive, so on a 60 s recording the cyclic garbage
        collector never starts."""
        _, laryn, _ = synth_utterance(5, 1, duration_sec=60.0, sample_rate=SR)
        filt = design_kaiser_highpass(KAISER_BETA, KAISER_ORDER, CUTOFF_HZ["female"], SR)
        frames = nccf(apply_fir(laryn, filt), frame_cfg())
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            lattice = pick_candidates(frames)
            labels = viterbi_track(lattice, SR)
        finally:
            gc.callbacks.remove(count)
        assert len(lattice) == 6000 and lattice.lags.size > 3 * len(lattice)
        assert 0.2 < labels.labels.mean() < 0.9
        assert collections == []


def brute_force_min_cost(candidates):
    best_cost = np.inf
    best_path = None
    for path in itertools.product(*[range(len(c)) for c in candidates]):
        c = path_cost(candidates, list(path))
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
        cands = [[PitchCandidate(0, VOICING_BIAS), PitchCandidate(80, 0.97)] for _ in range(20)]
        labels = viterbi_track(cands, SR)
        assert np.all(labels.labels == 1)
        assert np.allclose(labels.f0, 100.0)

    def test_unvoiced_only_candidates(self):
        cands = [[PitchCandidate(0, VOICING_BIAS)] for _ in range(10)]
        labels = viterbi_track(cands, SR)
        assert np.all(labels.labels == 0)
        assert np.all(labels.f0 == 0)

    def test_matches_exhaustive_search_small(self):
        rng = np.random.default_rng(11)
        for _ in range(150):
            inst = random_instance(rng)
            path, cost = viterbi_path(inst)
            assert path_cost(inst, path) == pytest.approx(cost, abs=1e-12)
            best_cost, _ = brute_force_min_cost(inst)
            assert cost == best_cost

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            viterbi_track([], SR)

    @pytest.mark.parametrize("lattice", [
        [[PitchCandidate(0, 0.5)], []],
        [[PitchCandidate(0, 0.5), PitchCandidate(-3, 0.9)]],
    ])
    def test_malformed_lattice_rejected(self, lattice):
        with pytest.raises(InvalidArgument):
            viterbi_path(lattice)

    def test_transition_table_is_bit_equal(self):
        table = _transition_table(256)
        cands = [PitchCandidate(lag, 0.0) for lag in range(256)]
        ref = [[ref_transition_cost(p, c).hex() for p in cands] for c in cands]
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
        path, cost = viterbi_path(lattice)
        ref_path, ref_cost = ref_viterbi_path(lattice)
        assert path == ref_path
        assert cost.hex() == ref_cost.hex()


class TestTrackVoicing:
    def test_sawtooth_then_silence(self):
        t = np.arange(SR) / SR
        voiced = 0.5 * sawtooth(2 * np.pi * 150.0 * t)
        x = np.concatenate([voiced, np.zeros(SR)])
        labels = track_voicing(Waveform(x, SR))
        first = labels.labels[2:98]  # exclude boundary/short frames
        second = labels.labels[102:]
        assert first.mean() >= 0.95
        assert (1 - second).mean() >= 0.99

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(5)
        labels = track_voicing(Waveform(rng.standard_normal(SR), SR))
        assert (labels.labels == 0).mean() >= 0.9

    def test_short_input_frame_count(self):
        labels = track_voicing(Waveform(np.ones(400), SR))
        assert len(labels) == 5  # ceil(400 / 80)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        w = Waveform(rng.standard_normal(SR), SR)
        a = track_voicing(w)
        b = track_voicing(w)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.f0, b.f0)


# tracemalloc peak growth of track_voicing per second of 8 kHz audio. The
# lattice (16 bytes a candidate, about 9 candidates a frame on a voiced
# laryngograph signal) is the only per-frame output; while pick_candidates
# joins its blocks, about 24 bytes a candidate are held. Holding the whole
# [T, L] NCCF matrix and the whole-signal energies grew by 0.245 MB/s.
MB_PER_AUDIO_S = 0.05


def test_memory_grows_with_the_lattice_only():
    track_voicing(Waveform(np.ones(SR), SR))  # the cached transition table is made outside the measurement
    peaks = []
    for seconds in (30.0, 120.0):
        _, laryn, _ = synth_utterance(5, 1, duration_sec=seconds, sample_rate=SR)
        tracemalloc.start()
        try:
            track_voicing(laryn)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 90.0 < MB_PER_AUDIO_S, peaks


class TestLagRange:
    def test_lag_range(self):
        assert lag_range(8000) == (16, 160)
        assert lag_range(16000) == (32, 320)

    @pytest.mark.parametrize("rate", [1000, 800])
    def test_rate_at_or_below_twice_f0_max_rejected(self, rate):
        with pytest.raises(InvalidArgument, match="Nyquist"):
            lag_range(rate)
        with pytest.raises(InvalidArgument, match="Nyquist"):
            track_voicing(Waveform(np.zeros(rate), rate))


RECIPE = ["F0_MIN", "F0_MAX", "MAX_CANDIDATES", "VOICING_BIAS", "SWITCH_COST",
          "OCTAVE_JUMP_WEIGHT", "NCCF_THRESHOLD", "CORR_WINDOW_MS", "ENERGY_FLOOR"]


@pytest.mark.parametrize("name", RECIPE)
def test_readme_states_the_recipe(name):
    """The README names each tracker constant once, followed by its value."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stated = re.findall(rf"`{name}`\s+([0-9.]+)", readme)
    assert [float(v) for v in stated] == [getattr(tracker, name)]
