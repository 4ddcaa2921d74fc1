"""The second core: ``tensor.beside`` runs the large input-gradient products
of ``linear`` and ``matmul`` and one half of ``Adam.step`` on a worker
thread, and the results are the same bits as with everything on the caller.

BLAS reads its thread count once, when numpy loads it, so each case runs in
a fresh interpreter with ``OPENBLAS_NUM_THREADS`` set.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second core")

# Runs 5 dropout steps of a model whose products and parameter count cross
# both thresholds, with the worker and then with ``beside`` forced inline;
# then a desk fit and step; then ``beside`` in a forked child. Prints what
# the test compares, as JSON.
SCRIPT = r"""
import hashlib, json, os, signal
import numpy as np
from cxrgen import tensor
from cxrgen.data import CorpusSpec, synthesize_corpus
from cxrgen.demographics import DemographicCodec, select_top_categories
from cxrgen.model import ModelConfig, init_parameters
from cxrgen.optim import CHUNK, Adam
from cxrgen.text import END_ID, PAD_ID, START_ID, build_vocabulary
from cxrgen.training import EncodedExample, TrainConfig, encode_examples, fit, train_step


class Counting:
    def __init__(self, pool):
        self.pool, self.submitted = pool, 0

    def submit(self, fn, *args):
        self.submitted += 1
        return self.pool.submit(fn, *args)


worker = Counting(tensor._worker) if tensor._worker is not None else None
report = {"blas_threads": tensor.BLAS_THREADS, "worker": worker is not None}


def steps(cfg, batch):
    params = init_parameters(cfg, seed=7)
    optimizer = Adam(params, lr=1e-3)
    rng = np.random.default_rng(11)
    losses = [train_step(batch, params, optimizer, cfg, rng=rng)[0] for _ in range(5)]
    digest = hashlib.sha256(optimizer._data.tobytes() + optimizer._m.tobytes()
                            + optimizer._v.tobytes())
    return losses, digest.hexdigest(), optimizer._data.size


if worker is not None:
    cfg = ModelConfig(feature_dim=256, d_model=128, d_embed=128, n_heads=4, vocab_size=512,
                      max_len=24, demographic_dim=7, dropout_rate=0.1)
    rng = np.random.default_rng(3)
    batch = [EncodedExample(f"p{i}", rng.normal(size=cfg.feature_dim), rng.random(7),
                            np.array([START_ID, *rng.integers(4, 512, size=20), END_ID, PAD_ID,
                                      PAD_ID]))
             for i in range(8)]
    tensor._worker = worker
    report["with_worker"] = steps(cfg, batch)
    report["submitted"] = worker.submitted
    tensor._worker = None
    report["inline"] = steps(cfg, batch)
    report["chunks"] = -(-report["inline"][2] // CHUNK)

    tensor._worker = worker
    worker.submitted = 0
    points = synthesize_corpus(CorpusSpec(n_per_stratum=4, feature_dim=24), seed=42)
    codec = DemographicCodec(tuple(select_top_categories([p.demographics for p in points],
                                                         k=5)[0]))
    vocab = build_vocabulary([p.report for p in points], cap=128)
    desk = ModelConfig(feature_dim=24, d_model=32, d_embed=32, n_heads=2,
                       vocab_size=len(vocab), max_len=24, demographic_dim=codec.dim,
                       dropout_rate=0.1)
    examples = encode_examples(points, vocab, codec, desk)
    fit(examples[:24], examples[24:], init_parameters(desk, seed=3), desk,
        TrainConfig(batch_size=16, learning_rate=1e-2, epochs=1, seed=5, patience=None))
    steps(desk, examples[:16])
    report["desk_submitted"] = worker.submitted

    # a forked child gets a worker thread of its own, not its parent's
    tensor.beside(sum, [1, 2])()   # the parent's thread has started
    pid = os.fork()
    if pid == 0:
        signal.alarm(20)   # a child left waiting on a thread it lacks is killed
        os._exit(0 if tensor.beside(sum, [3, 4])() == 7 else 1)
    report["forked_child_exit"] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
print(json.dumps(report))
"""


def _run(blas_threads: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads), "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_worker_gives_the_same_bits_as_inline():
    report = _run(1)
    if report["blas_threads"] is None:
        pytest.skip("this numpy's BLAS reports no thread count, so the worker stays off")
    assert report["blas_threads"] == 1 and report["worker"]
    assert report["chunks"] >= 2   # Adam splits the step
    # at least one submission per linear input gradient and one per Adam step
    assert report["submitted"] > 5
    assert report["with_worker"] == report["inline"]
    assert report["desk_submitted"] == 0
    assert report["forked_child_exit"] == 0


def test_worker_is_off_when_blas_runs_two_threads():
    report = _run(2)
    assert report["blas_threads"] in (2, None)
    assert not report["worker"]
