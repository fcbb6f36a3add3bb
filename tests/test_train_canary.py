"""The benchmark's train canary, run in-process as a tier-1 test.

perfbench/workloads.py builds a fixed corpus (4 x 1 s training utterances,
one validation utterance, one test file), trains the reduced DC-CRN for one
optimizer step through `voicedet.cli.main`, detects the test file, and
compares the posteriors with perfbench/reference/train_canary_posteriors.csv.
The single Adam step moves near-zero gradients by about lr * sign(g), so a
change in any reduction's rounding can move the posteriors past the
benchmark's tolerance; this test shows such a change in pytest. It builds
the inputs with the benchmark's own set-up and only reads the reference.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from voicedet.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """perfbench/<name>.py, loaded as a module without making perfbench a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def read_posteriors(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_train_canary_matches_reference(tmp_path):
    workloads = perfbench_module("workloads")
    inputs = tmp_path / "inputs"
    workloads.setup_train(inputs, seed=0, size="tiny")  # the canary's inputs do not depend on the seed
    for argv in workloads.commands_train(inputs / "canary", tmp_path / "out"):
        assert main(argv) == 0, argv
    (got,) = (tmp_path / "out" / "detect").glob("*.posteriors.csv")
    probs, ref = read_posteriors(got), read_posteriors(workloads.TRAIN_REFERENCE)
    assert probs.shape == ref.shape
    assert np.array_equal(probs[:, 0], np.arange(len(probs)))
    worst = np.max(np.abs(probs[:, 1] - ref[:, 1]))
    assert worst <= workloads.POSTERIOR_ATOL, f"canary posteriors moved by {worst:.2e}"
