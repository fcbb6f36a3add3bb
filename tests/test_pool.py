"""The nn worker pool: results that do not depend on the worker count, and
a pool that neither starts at import nor reaches the label path."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_bits_equal
from test_model import check_blocks_against_reference
from test_nn_ops import assert_conv_matches_reference, assert_gated_matches_reference

import voicedet
from voicedet.cli import main
from voicedet.nn import _pool, ops
from voicedet.nn.model import DccrnModel, ModelConfig, bce_loss
from voicedet.training import AdamState, adam_step

# Large enough for the pool to split products and elementwise passes alike:
# the blocks' wider convolutions, the BLSTM's batched products and (with
# hidden 256) its time loops all go to two and three workers.
SHAPE = (2, 48, 513, 2)
CONFIG = dict(block_out_channels=(2, 4), composite_growth=4, blstm_hidden=256, groups=4)


def train_step(dtype):
    """Posteriors, every gradient, and the parameters and batch-norm
    statistics after one Adam step of a reduced model."""
    model = DccrnModel(ModelConfig(**CONFIG, dtype=dtype), seed=3)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(SHAPE).astype(dtype)
    labels = rng.random(SHAPE[:2]) < 0.5
    probs, cache = model.forward_batch(x, training=True)
    _, dprobs = bce_loss(labels, probs)
    grads = model.backward_batch(dprobs, cache)
    params = model.params()
    adam_step(params, grads, AdamState.for_params(params), lr=1e-3)
    out = {"probs": probs}
    out.update({f"grad {k}": v for k, v in grads.items()})
    out.update({f"param {k}": v.copy() for k, v in params.items()})
    out.update({f"buffer {k}": v.copy() for k, v in model.buffers().items()})
    return out


def count_tasks(monkeypatch):
    """Record the task count of every pool run."""
    counts = []
    run = _pool._run

    def counting(tasks):
        tasks = list(tasks)
        counts.append(len(tasks))
        run(tasks)

    monkeypatch.setattr(_pool, "_run", counting)
    return counts


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_step_bits_do_not_depend_on_worker_count(monkeypatch, dtype):
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(_pool, "_workers", lambda workers=workers: workers)
        counts = count_tasks(monkeypatch)
        results[workers] = train_step(dtype)
        assert max(counts) >= workers  # the shape is above the split floor
        monkeypatch.undo()
    for workers in (2, 3):
        assert results[workers].keys() == results[1].keys()
        for name, want in results[1].items():
            assert_bits_equal(results[workers][name], want, f"{name} at {workers} workers")


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_split_convolutions_match_whole_products(monkeypatch, workers, dtype):
    # a composite and the gated convolution of the reduced model's first
    # block, each against one whole column product per output and gradient
    monkeypatch.setattr(_pool, "_workers", lambda: workers)
    rng = np.random.default_rng(workers)
    assert_conv_matches_reference(rng, (2, 48, 513, 14), 3, 4, 1, 1, dtype)
    assert_conv_matches_reference(rng, (2, 48, 513, 18), 4, 2, 2, 1, dtype)


# B*T from one frame to the pool test's batch; at 2 x 20 one path's product
# is between one and two product floors, so it stays whole at two workers.
FRAMES = [(1, 1), (1, 7), (2, 3), (2, 20), (2, 48)]


@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_gated_convolution_matches_per_path_references(monkeypatch, workers, frames):
    # the reduced model's first gated convolution (18 channels, stride 2):
    # one column copy for both paths, and both paths' input gradients added
    # chunk by chunk
    monkeypatch.setattr(_pool, "_workers", lambda: workers)
    rng = np.random.default_rng([workers, *frames])
    for dtype in (np.float32, np.float64):
        assert_gated_matches_reference(rng, (*frames, 513, 18), 4, 2, 2, dtype)


@pytest.mark.parametrize("frames", FRAMES)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_backward_matches_concatenation_reference(monkeypatch, workers, frames):
    # composite input gradients added into the block buffer chunk by chunk
    monkeypatch.setattr(_pool, "_workers", lambda: workers)
    cfg = ModelConfig(block_out_channels=(2, 4), composite_growth=4, blstm_hidden=8, groups=4, dtype="float32")
    check_blocks_against_reference(cfg, True, frames)


@pytest.mark.parametrize("workers", [1, 2])
def test_workers_follow_the_callers_errstate(monkeypatch, workers):
    # every element is inf * 0 (dy inf, ELU slope y + 1 = 0), in each slice
    monkeypatch.setattr(_pool, "_workers", lambda: workers)
    counts = count_tasks(monkeypatch)
    dy = np.full((64, 64, 64, 2), np.inf, np.float32)
    y = np.full(dy.shape, -1.0, np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            dx = ops.elu_backward(dy, y)
    assert np.isnan(dx).all()
    assert max(counts, default=1) >= workers  # the helpers ran slices
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        ops.elu_backward(dy, y)


def test_slices_keep_alignment_and_floor(monkeypatch):
    monkeypatch.setattr(_pool, "_workers", lambda: 3)
    for n, work, floor, align, most in [(1204, 10**8, 2**20, 16, 2**21), (42, 42 * 10**6, 2**20, 16, 0),
                                        (8, 8 * 10**6, 2**20, 1, 0), (96, 96, 2**16, 1, 0)]:
        slices = _pool._slices(n, work, floor, align, most)
        assert slices[0].start == 0 and slices[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
        if len(slices) > 1:
            assert all(s.start % align == 0 for s in slices)
            assert all((s.stop - s.start) * work >= floor * n for s in slices)
    assert _pool._slices(96, 96, 2**16) == [slice(0, 96)]


def test_import_starts_no_thread():
    # nor imports scipy.signal, which only a rational-ratio resample loads
    code = ("import sys, threading, voicedet.cli, voicedet.synth, voicedet.nn.model; "
            "from voicedet.nn import _pool; "
            "print(threading.active_count(), _pool._executor, 'scipy.signal' in sys.modules); "
            "import numpy as np; from voicedet.dsp import Waveform, resample; "
            "out = resample(Waveform(np.sin(0.02 * np.arange(4410)), 44100), 8000); "
            "print(len(out), 'scipy.signal' in sys.modules)")
    # the child imports voicedet from where this process found it, also when
    # only pytest's `pythonpath` setting put src/ on the path
    src = str(Path(voicedet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
                         env=env)
    assert out.stdout.split() == ["1", "None", "False", "800", "True"]


def test_labels_extract_forks_safely_after_the_pool_ran(monkeypatch, tmp_path):
    monkeypatch.setattr(_pool, "_workers", lambda: 2)
    DccrnModel(ModelConfig(**CONFIG), seed=0).forward_batch(np.zeros(SHAPE, np.float32))
    assert _pool._executor is not None  # the pool's thread is running
    assert main(["synth-corpus", "--out", str(tmp_path / "corpus"), "--n", "4", "--seed", "3"]) == 0

    def no_pool(tasks):
        raise AssertionError("the label path ran the nn pool")

    monkeypatch.setattr(_pool, "_run", no_pool)  # forked workers inherit it
    outs = {}
    for jobs in (1, 2):
        outs[jobs] = tmp_path / f"labels{jobs}"
        assert main(["labels-extract", "--manifest", str(tmp_path / "corpus" / "manifest.tsv"),
                     "--out", str(outs[jobs]), "--jobs", str(jobs)]) == 0
    files = sorted(p.name for p in outs[1].glob("*.lab"))
    assert len(files) == 4
    assert files == sorted(p.name for p in outs[2].glob("*.lab"))
    for name in files + ["summary.tsv"]:
        assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_elu_out_whose_rows_are_not_a_view_is_rejected():
    # the pool writes time-row slices of out, which must therefore be views
    x = np.ones((3, 4, 5, 2), np.float32)
    out = np.zeros((4, 3, 5, 2), np.float32).transpose(1, 0, 2, 3)
    with pytest.raises(ValueError, match="do not merge"):
        ops.elu_forward(x, out)
    assert not out.any()


def test_every_task_runs_once_under_thread_switching(monkeypatch):
    # more workers than CPUs and a short switch interval: a task taken twice
    # or never would show in the counts
    monkeypatch.setattr(_pool, "_workers", lambda: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            counts = np.zeros(500, dtype=np.int64)
            _pool._run([lambda i=i: counts.__setitem__(i, counts[i] + 1) for i in range(500)])
            assert (counts == 1).all()
    finally:
        sys.setswitchinterval(interval)
