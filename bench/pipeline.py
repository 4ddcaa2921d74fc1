"""The benchmark workloads as input profiles of one train -> generate -> score loop.

Every workload builds its inputs from the seed (set-up), then repeats a
cycle in a closed loop: ``fit`` each model variant, a run of direct
``train_step`` calls, save the fitted weights and load the decode checkpoint
the way ``cxrgen train`` and ``cxrgen generate`` do, ``generate`` the decode
split, and score a seeded corpus with ``evaluate_corpus``. The profiles
differ in scale; README.md says why each was chosen.

Every cycle repeats exactly the same computation. That is what the
determinism checks compare, and it gives every operation one repetition per
cycle, of which the metrics take the median.

All calls go through module attributes (``cxrgen.model.generate``), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import time
from collections import defaultdict

import numpy as np

import cxrgen.checkpoint
import cxrgen.data
import cxrgen.demographics
import cxrgen.metrics
import cxrgen.model
import cxrgen.optim
import cxrgen.text
import cxrgen.training
import hostspeed


@dataclasses.dataclass(frozen=True)
class Profile:
    paper_scale: bool           # ModelConfig() defaults and a 2,208-word report inventory
    per_stratum: int            # synthetic corpus: 8 strata of this many points
    subset_size: int            # points split 70/20/10 into train/val/test
    variants: tuple[str, ...]   # "demo" (demographics-enriched) and/or "base" (image-only)
    step_batches: int           # direct train_step calls per cycle, over the full batches
    temperatures: tuple[float, ...]
    setup_fit_epochs: int       # epochs of the set-up fit that trains the decoded checkpoint
    score_refs: int             # references in the seeded scoring corpus, two systems each


PROFILES = {
    "desk": Profile(
        paper_scale=False, per_stratum=150, subset_size=300, variants=("demo", "base"),
        step_batches=13, temperatures=(0.0, 0.5),
        setup_fit_epochs=2, score_refs=250),
    "paper-scale": Profile(
        paper_scale=True, per_stratum=6, subset_size=11, variants=("demo",),
        step_batches=4, temperatures=(0.0,),
        setup_fit_epochs=0, score_refs=40),
}

EMBED_DIM = 64
SCORE_CHUNK_PAIRS = 10
PAPER_REPORT_WORDS = 46          # 48 points x 46 words = the 2,208-word inventory
ORACLE_SAMPLE = 50
SETUP_REPEATS = 3
KINDS = ("step", "fit", "report", "score")


class OperationFailed(Exception):
    """An operation raised or an output check failed; the cycle stops here."""


class Recorder:
    """Timings of every operation, by kind and identity, plus the attempted/failed tally.

    An operation's identity (batch k, report i, ...) is the same in every
    cycle, so ``times[kind][identity]`` holds one time per repetition. The
    host-speed gauge is sampled at every stage boundary of a cycle.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.empty_hypotheses = 0
        self.clear_samples()

    def clear_samples(self) -> None:
        """Drop the timings (after warm-up) but keep the attempted/failed tally."""
        self.times = {kind: defaultdict(list) for kind in KINDS}
        self.units = {kind: {} for kind in KINDS}   # tokens or pairs per operation
        self.gauge = hostspeed.Gauge()

    def time(self, kind: str, identity, seconds: float, units: int = 1) -> None:
        self.times[kind][identity].append(seconds)
        self.units[kind][identity] = units

    def run(self, kind: str, fn):
        """Run one operation, counting it, and stop the cycle if it raises."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a benchmark boundary: record and keep running
            self.failed += 1
            self.errors.append(f"{kind}: {exc!r}")
            raise OperationFailed(kind) from exc

    def check(self, ok: bool, message: str) -> None:
        """An output check, counted as one more operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check: {message}")
            raise OperationFailed(message)


def _desk_config(vocab, demographic_dim):
    return cxrgen.model.ModelConfig(
        feature_dim=24, d_model=32, d_embed=32, n_heads=2, vocab_size=len(vocab),
        max_len=24, demographic_dim=demographic_dim, dropout_rate=0.0)


def _paper_reports(points, seed):
    """Replace each point's report with 46 words dealt from a shuffled 2,208-word inventory."""
    rng = np.random.default_rng([seed, 0xAB])
    words = [f"w{i:04d}" for i in range(len(points) * PAPER_REPORT_WORDS)]
    words = [words[i] for i in rng.permutation(len(words))]
    out = []
    for i, point in enumerate(points):
        interior = words[i * PAPER_REPORT_WORDS:(i + 1) * PAPER_REPORT_WORDS]
        report = cxrgen.text.CleanReport(point.id, ("<start>", *interior, "<end>"))
        out.append(cxrgen.data.DataPoint(point.id, point.features, report, point.demographics))
    return out


def _scoring_corpus(points, vocab, n_refs, seed):
    """Two hypothesis systems over the same references: each word kept, swapped or dropped."""
    rng = np.random.default_rng([seed, 0x5C])
    words = vocab.tokens[4:]
    refs, systems = [], ([], [])
    for _ in range(n_refs):
        ref = list(points[int(rng.integers(len(points)))].report.interior)
        refs.append(ref)
        for system, keep in zip(systems, (0.8, 0.6)):
            hyp = [w if rng.random() < keep else words[int(rng.integers(len(words)))]
                   for w in ref if rng.random() > 0.05]
            system.append(hyp or ref[:1])
    return refs, systems


class Workload:
    """Inputs built from the seed plus the cycle that exercises them."""

    def __init__(self, name: str, seed: int, scratch, oracle_bleu):
        self.name = name
        self.profile = PROFILES[name]
        self.seed = seed
        self.scratch = scratch
        self.oracle_bleu = oracle_bleu   # tests/oracles.count_and_clip_bleu
        self.reference = None            # first cycle's outputs; later cycles must match
        self.test_bleu_1 = float("nan")

    # -- set-up --------------------------------------------------------------

    def setup(self) -> str:
        """Build every input from the seed; returns a digest of what was built."""
        prof, seed = self.profile, self.seed
        spec = cxrgen.data.default_corpus_spec(
            n_per_stratum=prof.per_stratum, feature_dim=1280 if prof.paper_scale else 24)
        points = cxrgen.data.synthesize_corpus(spec, seed=seed)
        categories, _ = cxrgen.demographics.select_top_categories(
            [p.demographics for p in points], k=5)
        if prof.paper_scale:
            points = _paper_reports(points, seed)
            categories.append("other")           # 7-wide vectors, as in ModelConfig()
        self.codec = cxrgen.demographics.DemographicCodec(tuple(categories))
        self.vocab = cxrgen.text.build_vocabulary(
            [p.report for p in points], cap=2212 if prof.paper_scale else 128)
        by_id = {p.id: p for p in points}
        subset = cxrgen.data.sample_subsets(points, 1, prof.subset_size, seed=seed)[0]
        manifest = cxrgen.data.split(subset, seed=seed + 100)
        self.splits = {name: [by_id[i] for i in ids] for name, ids in
                       (("train", manifest.train_ids), ("val", manifest.val_ids),
                        ("test", manifest.test_ids))}
        if prof.paper_scale:
            self.configs = {"demo": cxrgen.model.ModelConfig(),
                            "base": cxrgen.model.ModelConfig(demographic_dim=0)}
            self.train_cfg = cxrgen.training.TrainConfig(
                batch_size=8, epochs=1, seed=seed, patience=None)
        else:
            self.configs = {"demo": _desk_config(self.vocab, self.codec.dim),
                            "base": _desk_config(self.vocab, 0)}
            self.train_cfg = cxrgen.training.TrainConfig(
                batch_size=16, learning_rate=1e-2, epochs=1, seed=seed, patience=None)
        self.examples = {
            variant: {split: cxrgen.training.encode_examples(
                self.splits[split], self.vocab, self.codec, self.configs[variant])
                for split in ("train", "val")}
            for variant in prof.variants}
        rng = np.random.default_rng([seed, 0xE8])
        self.table = cxrgen.metrics.EmbeddingTable(
            {t: rng.normal(size=EMBED_DIM) for t in self.vocab.tokens}, unknown_policy="zero")
        digest = hashlib.sha256("\n".join(self.vocab.tokens).encode())
        for variant in prof.variants:
            for split in ("train", "val"):
                for ex in self.examples[variant][split]:
                    digest.update(ex.ids.tobytes())
        self.score_refs, self.score_systems = _scoring_corpus(
            points, self.vocab, prof.score_refs, seed)
        digest.update(repr((self.score_refs, self.score_systems)).encode())
        cfg = self.configs["demo"]
        params = cxrgen.model.init_parameters(cfg, seed=seed)
        if prof.setup_fit_epochs:
            ex = self.examples["demo"]
            cxrgen.training.fit(ex["train"], ex["val"], params, cfg, dataclasses.replace(
                self.train_cfg, epochs=prof.setup_fit_epochs))
        self.decode_checkpoint = self.scratch / "decode"
        self._save(params, cfg, self.decode_checkpoint)
        digest.update(cxrgen.checkpoint.parameter_checksum(params, cfg).encode())
        return digest.hexdigest()

    def _save(self, params, cfg, path):
        extra = {"vocab": self.vocab.tokens, "codec": self.codec.to_dict()}
        cxrgen.checkpoint.save_checkpoint(params, cfg, path, extra=extra)

    # -- one cycle -----------------------------------------------------------

    def cycle(self, rec: Recorder) -> None:
        prof, seed = self.profile, self.seed
        rec.gauge.sample()
        trajectories, fitted = {}, {}
        for variant in prof.variants:
            cfg = self.configs[variant]
            ex = self.examples[variant]
            params = cxrgen.model.init_parameters(cfg, seed=seed)
            started = time.perf_counter()
            log = rec.run("fit", lambda: cxrgen.training.fit(
                ex["train"], ex["val"], params, cfg, self.train_cfg))
            rec.time("fit", variant, time.perf_counter() - started)
            trajectory = log.trajectory()
            rec.check(all(np.isfinite(loss) for row in trajectory for loss in row[:2]),
                      f"non-finite loss in {variant} fit")
            trajectories[variant] = trajectory
            fitted[variant] = params

        rec.gauge.sample()
        cfg = self.configs["demo"]
        params = fitted["demo"]
        optimizer = cxrgen.optim.Adam(params, lr=self.train_cfg.learning_rate)
        dropout_rng = np.random.default_rng([seed, 0xD1])
        size = self.train_cfg.batch_size
        train = self.examples["demo"]["train"]
        batches = [train[i:i + size] for i in range(0, len(train) - size + 1, size)]
        losses = []
        for k in range(prof.step_batches):
            batch = batches[k % len(batches)]
            started = time.perf_counter()
            loss, tokens = rec.run("train_step", lambda: cxrgen.training.train_step(
                batch, params, optimizer, cfg, rng=dropout_rng))
            rec.time("step", k, time.perf_counter() - started, tokens)
            losses.append(loss)

        for variant in prof.variants:
            rec.run("save_checkpoint", lambda: self._save(
                fitted[variant], self.configs[variant], self.scratch / f"fitted-{variant}"))
        loaded, cfg = rec.run("load_checkpoint", lambda: cxrgen.checkpoint.load_checkpoint(
            self.decode_checkpoint))

        rec.gauge.sample()
        points = self.splits["val"] + self.splits["test"]
        systems = []
        for temperature in prof.temperatures:
            hyps = []
            for i, point in enumerate(points):
                demo = self.codec.encode(point.demographics)
                started = time.perf_counter()
                ids = rec.run("generate", lambda: cxrgen.model.generate(
                    point.features, demo, loaded, cfg, temperature=temperature,
                    seed=[seed, i]))
                hyps.append(rec.run("decode_ids", lambda: cxrgen.text.decode_ids(
                    ids, self.vocab)))
                rec.time("report", (temperature, i), time.perf_counter() - started, len(ids))
            systems.append(hyps)
        # Corpus rejects empty sequences, and a model can emit <end> first.
        pairs = [(hyp, list(p.report.interior)) for hyp, p in
                 zip(systems[0][len(self.splits["val"]):], self.splits["test"]) if hyp]
        rec.empty_hypotheses += len(self.splits["test"]) - len(pairs)
        if pairs:
            test_hyps, test_refs = zip(*pairs)
            self.test_bleu_1 = rec.run("bleu", lambda: cxrgen.metrics.bleu(
                cxrgen.metrics.Corpus.from_lists(test_hyps, test_refs), max_n=1)[0])

        rec.gauge.sample()
        self._score(rec, self.score_refs, self.score_systems)

        outputs = (trajectories, losses, systems)
        if self.reference is None:
            self.reference = outputs
        rec.check(outputs == self.reference,
                  "a cycle's trajectories, losses or hypotheses differ from the first cycle's")

    def _score(self, rec: Recorder, refs, systems) -> None:
        """evaluate_corpus per system in chunks, then a paired t-test of the first two.

        Each chunk and the t-test is one timed operation; many small operations
        give the per-operation medians more to average over.
        """
        for start in range(0, len(refs), SCORE_CHUNK_PAIRS):
            window = slice(start, start + SCORE_CHUNK_PAIRS)
            started = time.perf_counter()
            for hyps in systems:
                corpus = rec.run("corpus", lambda: cxrgen.metrics.Corpus.from_lists(
                    hyps[window], refs[window]))
                rec.run("evaluate_corpus", lambda: cxrgen.metrics.evaluate_corpus(
                    corpus, self.table))
            rec.time("score", start, time.perf_counter() - started,
                     len(refs[window]) * len(systems))
        if len(systems) > 1:
            started = time.perf_counter()
            per_pair = rec.run("bleu", lambda: [
                [cxrgen.metrics.bleu(cxrgen.metrics.Corpus.from_lists([h], [r]), max_n=1)[0]
                 for h, r in zip(hyps, refs)] for hyps in systems[:2]])
            rec.run("paired_t_test", lambda: cxrgen.metrics.paired_t_test(*per_pair))
            rec.time("score", "t-test", time.perf_counter() - started, 0)
        sample = min(ORACLE_SAMPLE, len(refs))
        ours = rec.run("bleu", lambda: cxrgen.metrics.bleu(cxrgen.metrics.Corpus.from_lists(
            systems[0][:sample], refs[:sample])))
        oracle = self.oracle_bleu(systems[0][:sample], refs[:sample])
        rec.check(all(abs(a - b) < 1e-9 for a, b in zip(ours, oracle)),
                  f"bleu {ours} disagrees with the count-and-clip oracle {oracle}")

    def outputs_digest(self) -> str:
        """sha256 of the reference cycle's trajectories, losses and hypotheses."""
        return hashlib.sha256(repr(self.reference).encode()).hexdigest()

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def measure(workload, rec, tracer, seconds):
    """Set up three times, warm up once, then run cycles until ``seconds`` have passed.

    With a tracer, the middle set-up and every second cycle run traced.
    """
    def run_traced(traced, fn):
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            return fn()
        finally:
            elapsed.append(time.perf_counter() - started)
            if traced:
                tracer.uninstall()

    def cycle():
        try:
            workload.cycle(rec)
        except OperationFailed:
            pass

    def setup(traced):
        setup_gauge.sample()
        return run_traced(traced, workload.setup)

    elapsed = []
    setup_gauge = hostspeed.Gauge()
    digests = [setup(tracer is not None and k == SETUP_REPEATS // 2)
               for k in range(SETUP_REPEATS)]
    setup_gauge.sample()
    rec.check(len(set(digests)) == 1, "set-up is not deterministic under one seed")
    if tracer:
        tracer.end_setup()
    setup_s = elapsed[:]
    run_traced(False, cycle)            # warm-up; also the determinism reference
    warmup_s = elapsed[-1]
    rec.clear_samples()

    cycle_s = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        run_traced(traced, cycle)
        cycle_s[traced].append(elapsed[-1])
        index += 1
    return {"setup_s": setup_s, "setup_gauge": setup_gauge, "setup_digest": digests[0],
            "warmup_s": warmup_s,
            "cycles": index, "cycle_s": cycle_s}
