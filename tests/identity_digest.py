"""Print one sha256 per reproducible result of the package, to check that a
change leaves training, validation and generation byte-identical.

Each case hashes the raw bytes of what it computes, with fixed seeds:

* ``fit:<variant>`` -- a 3-epoch fit of a desk model (the criterion-5
  config: feature width 24, d_model 32, 2 heads, max_len 24) on a seeded
  synthetic corpus: every epoch's train and validation loss and
  ``parameter_checksum``; ``fit:<variant>:params.bin`` and
  ``fit:<variant>:manifest.json`` -- the bytes of each file of the
  checkpoint saved after that fit, so a change to the manifest's format
  shows apart from the weights;
* ``steps:<variant>`` -- two ``train_step`` calls of a fresh model on one
  batch: the losses, every gradient and parameter after each step, and
  Adam's first and second moments;
* ``evaluate_loss:<variant>`` -- the validation loss of a fresh model;
* ``generate:<variant>:<greedy|T=0.5>`` -- the ids ``generate`` decodes
  for a few examples with the fitted desk model, or a fresh paper-scale one;
* ``corpus`` -- every point of ``synthesize_corpus(CorpusSpec(), seed=42)``
  (ids of the point and its report, tokens, demographics, the raw text of
  its ``synthesize_records`` record, feature bytes), then what ``build_datapoints`` makes of
  ``oracles.mixed_cleaning_records`` (the same ids and the tokens of the
  points; ids, reasons and details of the rejects);
* ``ttest`` -- the ``repr`` of ``t`` and ``p`` that ``paired_t_test``
  gives for a few fixed score pairs: criterion 5's shape (4 subsets, 3
  degrees of freedom), a t near zero, a huge t and 30 seeded pairs;
* ``prepare:<file>`` -- the bytes of each file that ``cxrgen synth-data``
  then ``cxrgen prepare-data`` (2 subsets) write in a temporary directory:
  ``dataset.jsonl``, ``cleaned.jsonl``, ``vocab.txt``, ``rejects.jsonl``,
  ``demographics.json`` and each split manifest. ``provenance.json`` is left
  out, since it records the temporary paths.

The desk variants are ``desk`` (dropout 0), ``desk-dropout-0.1``,
``desk-2-blocks`` and ``desk-image-only``; ``paper`` is ``ModelConfig()``
(dropout 0.1) on random reports of 4 to 48 ids.

The first line names the numeric environment the cases ran in: the BLAS
thread count ``cxrgen.tensor`` read at import and whether its worker thread
is on (a tree from before the worker reads no count). The bits of a BLAS
product depend on the thread count (ROADMAP item 6), so two runs compare
only under the same ``OPENBLAS_NUM_THREADS``; the worker changes no bit.

Run from the root of a checkout: ``PYTHONPATH=src python
tests/identity_digest.py``. It imports ``cxrgen`` from ``PYTHONPATH``, so
the same script can be run in a second checkout of another commit; equal
output means equal bytes (README, "Running the tests"). It takes a few
seconds on two cores. The name does not start with ``test_``, so pytest
does not collect it.
"""

import contextlib
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from cxrgen.checkpoint import parameter_checksum, save_checkpoint
from cxrgen.cli import main as cxrgen_main
from cxrgen.data import CorpusSpec, build_datapoints, synthesize_corpus, synthesize_records
from cxrgen.demographics import DemographicCodec, select_top_categories
from cxrgen.metrics import paired_t_test
from cxrgen.model import ModelConfig, generate, init_parameters
from cxrgen.optim import Adam
from cxrgen.text import END_ID, PAD_ID, START_ID, build_vocabulary
from cxrgen.training import (EncodedExample, TrainConfig, encode_examples, evaluate_loss, fit,
                             train_step)

from oracles import mixed_cleaning_records


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def desk_world():
    """The corpus, codec and vocabulary every desk variant shares."""
    points = synthesize_corpus(CorpusSpec(n_per_stratum=6, feature_dim=24), seed=42)
    categories, _ = select_top_categories([p.demographics for p in points], k=5)
    codec = DemographicCodec(tuple(categories))
    vocab = build_vocabulary([p.report for p in points], cap=128)
    return points, codec, vocab


def desk_variants(codec, vocab) -> dict[str, ModelConfig]:
    desk = ModelConfig(feature_dim=24, d_model=32, d_embed=32, n_heads=2,
                       vocab_size=len(vocab), max_len=24, demographic_dim=codec.dim,
                       dropout_rate=0.0)
    return {"desk": desk, "desk-dropout-0.1": replace(desk, dropout_rate=0.1),
            "desk-2-blocks": replace(desk, n_decoder_blocks=2),
            "desk-image-only": replace(desk, demographic_dim=0)}


def paper_examples(cfg: ModelConfig, n: int, seed: int) -> list[EncodedExample]:
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        length = int(rng.integers(4, cfg.max_len - 1))
        ids = np.concatenate([[START_ID], rng.integers(4, cfg.vocab_size, size=length),
                              [END_ID], np.full(cfg.max_len - length - 2, PAD_ID)])
        examples.append(EncodedExample(f"p{i}", rng.normal(size=cfg.feature_dim),
                                       rng.random(cfg.demographic_dim), ids))
    return examples


def fit_case(train, val, cfg) -> tuple[bytes, dict, dict[str, bytes]]:
    params = init_parameters(cfg, seed=3)
    log = fit(train, val, params, cfg, TrainConfig(batch_size=8, learning_rate=1e-2,
                                                   epochs=3, seed=5, patience=None))
    digest = hashlib.sha256()
    for train_loss, val_loss, checksum in log.trajectory():
        digest.update(_floats([train_loss, val_loss]) + checksum.encode())
    digest.update(parameter_checksum(params, cfg).encode())
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(params, cfg, Path(tmp) / "ckpt")
        files = {path.name: path.read_bytes() for path in (Path(tmp) / "ckpt").iterdir()}
    return digest.digest(), params, files


def steps_case(batch, cfg) -> bytes:
    params = init_parameters(cfg, seed=7)
    optimizer = Adam(params, lr=1e-3)
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()
    for _ in range(2):
        loss, count = train_step(batch, params, optimizer, cfg, rng=rng)
        digest.update(_floats([loss, count]))
        for name, p in params.items():
            digest.update(name.encode() + p.grad.tobytes() + p.data.tobytes())
    digest.update(optimizer._m.tobytes() + optimizer._v.tobytes())
    return digest.digest()


def generate_case(examples, params, cfg, temperature) -> bytes:
    digest = hashlib.sha256()
    for index, ex in enumerate(examples):
        ids = generate(ex.features, ex.demo, params, cfg, temperature=temperature,
                       seed=[9, index])
        digest.update(np.asarray(ids, dtype=np.int64).tobytes() + b"|")
    return digest.digest()


def corpus_case() -> bytes:
    digest = hashlib.sha256()
    records = synthesize_records(CorpusSpec(), seed=42)
    for record, point in zip(records, synthesize_corpus(CorpusSpec(), seed=42), strict=True):
        demo = point.demographics
        fields = (point.id, point.report.id, *point.report.tokens, demo.gender, str(demo.age),
                  demo.ethnicity, record.text)
        digest.update("\x1f".join(fields).encode() + point.features.tobytes() + b"|")
    points, rejects = build_datapoints(mixed_cleaning_records())
    for point in points:
        digest.update("\x1f".join((point.id, point.report.id, *point.report.tokens)).encode()
                      + b"|")
    for reject in rejects:
        digest.update("\x1f".join((reject.id, reject.reason, reject.detail)).encode() + b"|")
    return digest.digest()


def ttest_case() -> bytes:
    rng = np.random.default_rng(17)
    pairs = [([0.412, 0.398, 0.431, 0.405], [0.371, 0.366, 0.395, 0.382]),
             ([1.0, -1.0, 2.0, -2.0 + 1e-9], [0.0] * 4),
             ([1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 2e-9], [0.0] * 4),
             (rng.normal(0.1, 1.0, size=30), rng.normal(size=30))]
    results = [paired_t_test(a, b) for a, b in pairs]
    return "".join(f"{result.t!r} {result.p!r}|" for result in results).encode()


def prepared_data_cases():
    """Yield ``(prepare:<file>, bytes)`` for each file of a synthetic corpus
    and of the directory ``prepare-data`` makes of it."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus, prep = Path(tmp) / "corpus", Path(tmp) / "prep"
        for argv in (["synth-data", "--out", str(corpus), "--seed", "7",
                      "--n-per-stratum", "6", "--feature-dim", "8"],
                     ["prepare-data", "--data", str(corpus / "dataset.jsonl"), "--out", str(prep),
                      "--seed", "3", "--subsets", "2", "--vocab-cap", "64"]):
            with contextlib.redirect_stdout(sys.stderr):
                if cxrgen_main(argv) != 0:
                    raise SystemExit(f"cxrgen {argv[0]} failed")
        yield "prepare:dataset.jsonl", (corpus / "dataset.jsonl").read_bytes()
        for path in [*(prep / name for name in ("cleaned.jsonl", "vocab.txt", "rejects.jsonl",
                                                "demographics.json")),
                     *sorted((prep / "splits").iterdir())]:
            yield f"prepare:{path.relative_to(prep)}", path.read_bytes()


def cases():
    """Yield (name, digest bytes) for every case, in a fixed order."""
    points, codec, vocab = desk_world()
    for variant, cfg in desk_variants(codec, vocab).items():
        examples = encode_examples(points, vocab, codec, cfg)
        train, val = examples[:40], examples[40:]
        yield f"steps:{variant}", steps_case(train[:8], cfg)
        yield f"evaluate_loss:{variant}", _floats(
            evaluate_loss(val, init_parameters(cfg, seed=3), cfg, batch_size=8))
        digest, params, files = fit_case(train, val, cfg)
        yield f"fit:{variant}", digest
        for name in ("params.bin", "manifest.json"):
            yield f"fit:{variant}:{name}", files[name]
        for label, temperature in (("greedy", 0.0), ("T=0.5", 0.5)):
            yield f"generate:{variant}:{label}", generate_case(val[:4], params, cfg,
                                                                temperature)
    cfg = ModelConfig()
    examples = paper_examples(cfg, 6, seed=13)
    yield "steps:paper", steps_case(examples[:4], cfg)
    yield "evaluate_loss:paper", _floats(
        evaluate_loss(examples, init_parameters(cfg, seed=3), cfg, batch_size=4))
    params = init_parameters(cfg, seed=3)
    for label, temperature in (("greedy", 0.0), ("T=0.5", 0.5)):
        yield f"generate:paper:{label}", generate_case(examples[:2], params, cfg, temperature)
    yield "corpus", corpus_case()
    yield "ttest", ttest_case()
    yield from prepared_data_cases()


def main() -> int:
    import cxrgen
    from cxrgen import tensor

    print(f"# cxrgen from {Path(cxrgen.__file__).parent}", file=sys.stderr)
    if hasattr(tensor, "BLAS_THREADS"):
        print(f"# blas threads {tensor.BLAS_THREADS}, worker "
              f"{'on' if tensor._worker is not None else 'off'}", flush=True)
    else:   # a tree from before the worker thread
        print("# blas threads not read, no worker", flush=True)
    for name, payload in cases():
        print(f"{hashlib.sha256(payload).hexdigest()}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
