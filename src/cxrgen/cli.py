r"""Operator-facing command line: synth-data, prepare-data, train, generate,
evaluate, compare.

Every artifact-producing command (``synth-data``, ``prepare-data``,
``train`` and ``generate``) writes its files into one ``--out`` directory,
creating it and its missing parents, with a provenance record,
``provenance.json``. It holds the command; ``options``, every option as
parsed, seed included, except ``--config`` (the values it gave are recorded
as parsed) and ``--out``; and the sha256 checksums of its inputs: enough to
reproduce the artifact bit for bit. Each checksum is taken of the bytes the
command parsed, as it read them. No command replaces another's record: each
first reads the ``provenance.json`` in its ``--out``, if there is one, and
refuses the directory when another command wrote it, before anything is
written. Re-running a command into its own directory is allowed. A
``provenance.json`` that cannot be read, and an ``--out`` that exists and
is not a directory, exit 2 before any input is read or anything written.
``generate --out gen`` writes ``gen/hyp.txt``, the hypotheses, and
``gen/ref.txt``, the references, one report per line, for ``evaluate``;
generating into ``gen`` inside a training run's directory keeps the run's
record. ``prepare-data`` adds a ``cleaning`` block: for each of
``--stopwords``, ``--std-map`` and ``--reject-patterns``, the sha256 of the
bytes parsed; the option's path is in ``options``, null for the shipped
file. ``generate`` adds a ``generation`` block: reports, tokens emitted,
mean length, end-marker hit rate, reports cut at ``max_len``, ``<unk>`` ids
emitted, and empty reports (the end marker emitted first), which are
written as empty lines and scored by ``evaluate``.

Options may come from a JSON config file (``--config``), required ones
included. Its values are parsed like flags, so a value of the wrong type or
outside an option's choices exits 2; explicit command line flags win over
config-file values, which win over built-in defaults. An option name is
written in full in the file as on the command line: the parsers take no
abbreviation.

Every JSON and text file is read and written through ``cxrgen.files``. The
hypotheses and references of ``evaluate`` hold one report per line; lines end
at ``\n``, ``\r\n`` or ``\r`` only.

``train`` reads the demographic codec from ``demographics.json`` and stores
the variant it trains, or null for the image-only model, in the checkpoint
with the vocabulary. ``generate`` takes both from the checkpoint's
``manifest.json``, which its provenance records with ``params.bin``, and
reads only ``cleaned.jsonl`` and the split manifest from ``--data``.
``evaluate --out`` and ``compare --out`` name a JSON file, whose missing
parent directories are created. A metric whose paired differences are all
equal has no t statistic: ``compare`` records its ``t``, ``p`` and
``significant`` as null, prints them as ``n/a`` and goes on.

Exit codes: 0 success, 2 usage or configuration error (any ``OSError`` on a
path is one, and so are a malformed ``--config`` file, one with a ``config``
key, an abbreviated option name, a bad ``--std-map`` or
``--reject-patterns`` line, a ``--std-map`` canonical phrase that is not
lowercase words, a ``train --max-len`` over ``model.MAX_LEN``, a
``--d-model`` over ``model.MAX_D_MODEL``, an ``--n-decoder-blocks`` over
``model.MAX_DECODER_BLOCKS``, a model too large for the host's memory (a
``MemoryError``), a checkpoint whose feature width differs from the
prepared data's, a ``generate --split`` that holds no report and an
``--out`` whose record another command wrote), 3 data integrity failure (a
file that is not UTF-8 is one, and so are a checkpoint of a format other
than 4, one without an ``extra`` payload (a JSON object), one whose
``extra`` lacks its checksum or fails it, one
whose tensor name list differs from its config's model, one whose blob
is not the size that model's tensors take, one with a tensor whose bytes
fail its checksum or hold a value that is not finite, one whose config
holds a size that is not an int or lies outside ``model.SIZE_BOUNDS``, or a
dropout rate that is not a number, a bad dataset record, a malformed split
manifest (a key other than the three id lists, or an id list that is not a
list of strings, included) or evaluation report, a repeated vocabulary
token or one that is not one word under ``str.split()`` (an empty line of
``vocab.txt`` included), a demographics manifest or checkpoint codec that lacks a
key or holds a bad value, and a checkpoint vocabulary or codec that does
not fit its model), 4 numeric failure or a broken precondition
(``TrainingError``, and ``ContractError`` with its kinds ``ShapeError`` and
``DegenerateInputError``). Every error the package raises exits 2, 3 or 4;
argparse's own usage errors exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checkpoint import BLOB_NAME, MANIFEST_NAME, load_from_manifest, read_manifest, save_checkpoint
from .data import (CorpusSpec, build_datapoints, load_prepared_dataset, load_raw_records,
                   sample_subsets, split, synthesize_records, write_dataset,
                   write_prepared_dataset, SplitManifest)
from .demographics import DemographicCodec, select_top_categories
from .errors import (ConfigError, ContractError, DegenerateInputError, IntegrityError,
                     TrainingError)
from .files import read_json_object, read_lines, write_json, write_json_lines, write_lines
from .metrics import (DEFAULT_ALPHA, Corpus, EmbeddingTable, EvaluationReport, evaluate_corpus,
                      paired_t_test)
from .model import ModelConfig, generate, init_parameters
from .text import (DEFAULT_MIN_RAW_WORDS, END_ID, UNK_ID, StandardizationMap, Vocabulary,
                   build_vocabulary, decode_ids, load_reject_patterns, load_stopwords)
from .training import TrainConfig, encode_examples, fit

USAGE_EXIT = 2
INTEGRITY_EXIT = 3
NUMERIC_EXIT = 4


def _write_provenance(args, inputs: dict, **sections) -> None:
    """Write ``provenance.json`` into ``args.out``: the command, every option
    in ``args`` but ``--config`` and ``--out``, and ``inputs``, which maps
    each input path to the ``hashlib`` object that took in the bytes the
    command parsed from it."""
    options = {key: value for key, value in vars(args).items()
               if key not in ("command", "config", "out", "func")}
    write_json(Path(args.out) / "provenance.json", {
        "command": args.command,
        "options": options,
        "inputs": {str(p): digest.hexdigest() for p, digest in inputs.items()},
        **sections,
    }, sort_keys=True)


def _claim_out_dir(args) -> None:
    """Refuse an ``--out`` that exists and is not a directory, and a
    directory whose ``provenance.json`` another command wrote: writing there
    would replace the record of how its files were made. Re-running a
    command into its own directory is allowed. A command claims its
    ``--out`` before it reads any input."""
    out, command = Path(args.out), args.command
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {out} exists and is not a directory")
    path = out / "provenance.json"
    if path.exists():
        previous = read_json_object(path, ConfigError, None).get("command")
        if previous != command:
            raise ConfigError(f"--out {out} holds the provenance record of {previous!r}; "
                              f"{command} would replace it, so choose another --out")


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv`` with the --config file's values as option tokens.

    The file's ``{"key": value}`` pairs become ``--key=value`` tokens (a list
    becomes ``--key item ...``) placed after the command name and before the
    explicit flags, so argparse converts and checks them like flags, required
    options included, and an explicit flag, parsed later, wins. A null value
    is an option not given, which takes its default; so a provenance
    record's ``options`` is a config file that reproduces its run. The
    parsers take no abbreviation, so an option name must be written in full
    in the file as on the command line; a ``config`` key, a boolean and an
    object are refused.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    path, values = None, {}
    for token, following in zip(argv, argv[1:] + [None]):
        if token == "--config":
            path = following
        elif token.startswith("--config="):
            path = token.partition("=")[2]
    if path is not None:
        values = read_json_object(path, ConfigError, None)
    tokens = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if flag == "--config" or isinstance(value, (bool, dict)):
            raise ConfigError(f"config file {path}: {key!r} may not be {json.dumps(value)}")
        if isinstance(value, list):
            tokens += [flag, *map(str, value)]
        elif value is not None:
            tokens.append(f"{flag}={value}")
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def _cleaning_inputs(args):
    """The stop words, standardization map and reject patterns that ``args``
    name, and for each option the sha256 of the bytes parsed."""
    digests = {option: hashlib.sha256() for option in ("stopwords", "std_map", "reject_patterns")}
    loaded = (load_stopwords(args.stopwords, digests["stopwords"]),
              StandardizationMap.from_file(args.std_map, digests["std_map"]),
              load_reject_patterns(args.reject_patterns, digests["reject_patterns"]))
    return loaded, {option: digest.hexdigest() for option, digest in digests.items()}


def _parse_fields(raw: str) -> tuple[str, ...]:
    raw = raw.strip().lower()
    if raw in ("", "none", "baseline"):
        return ()
    return tuple(part.strip() for part in raw.split(",") if part.strip())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth_data(args) -> int:
    _claim_out_dir(args)
    records = synthesize_records(
        CorpusSpec(n_per_stratum=args.n_per_stratum, feature_dim=args.feature_dim), args.seed)
    out = Path(args.out)
    write_dataset(records, out / "dataset.jsonl")
    _write_provenance(args, {})
    print(f"wrote {len(records)} synthetic records to {out / 'dataset.jsonl'}")
    return 0


def cmd_prepare_data(args) -> int:
    _claim_out_dir(args)
    if args.age_min >= args.age_max:
        raise ConfigError(f"--age-min {args.age_min} must be below --age-max {args.age_max}")
    data_path = Path(args.data)
    data_sha256 = hashlib.sha256()
    records = load_raw_records(data_path, data_sha256)
    if not records:
        raise IntegrityError(f"{data_path} holds no records")
    (stopwords, std_map, patterns), cleaning = _cleaning_inputs(args)
    points, rejects = build_datapoints(records, stopwords, std_map, patterns,
                                       min_raw_words=args.min_raw_words)
    if not points:
        raise IntegrityError("every record was rejected by the cleaning pipeline")
    categories, _ = select_top_categories(
        [p.demographics for p in points], args.top_ethnicities)
    vocab = build_vocabulary([p.report for p in points], cap=args.vocab_cap)
    subset_size = args.subset_size or len(points) // args.subsets
    subsets = sample_subsets(points, args.subsets, subset_size, args.seed)

    out = Path(args.out)
    write_prepared_dataset(points, out / "cleaned.jsonl")
    write_json_lines(out / "rejects.jsonl", (dataclasses.asdict(r) for r in rejects))
    vocab.save(out / "vocab.txt")
    write_json(out / "demographics.json", {
        "categories": categories,
        "age_min": args.age_min,
        "age_max": args.age_max,
    })

    for i, ids in enumerate(subsets):
        split(ids, seed=args.seed + i).save(out / "splits" / f"subset_{i}.json")
    _write_provenance(args, {data_path: data_sha256}, cleaning=cleaning)
    print(f"kept {len(points)} reports ({len(rejects)} rejected), "
          f"vocabulary size {len(vocab)}, {args.subsets} subset(s) of {subset_size}")
    return 0


def _load_points(path, digest) -> list:
    points = load_prepared_dataset(path, digest)
    if not points:
        raise IntegrityError(f"{path} holds no records")
    return points


@contextlib.contextmanager
def _bad_data(source):
    """Report a ``ConfigError`` raised inside as an ``IntegrityError`` naming
    ``source``, the file that held the rejected value."""
    try:
        yield
    except ConfigError as exc:
        raise IntegrityError(f"{source}: {exc}") from None


def _load_split(data_dir, subset: int, inputs: dict) -> SplitManifest:
    """The split manifest of ``subset``; its path and digest go into ``inputs``."""
    path = Path(data_dir) / "splits" / f"subset_{subset}.json"
    if not path.exists():
        raise ConfigError(f"no split manifest for subset {subset} at {path}")
    inputs[path] = hashlib.sha256()
    return SplitManifest.load(path, inputs[path])


def _split_points(points, ids) -> list:
    """The prepared points that a split's ``ids`` name, in the split's order."""
    by_id = {p.id: p for p in points}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise IntegrityError(f"split references unknown ids, e.g. {missing[:3]}")
    return [by_id[i] for i in ids]


def cmd_train(args) -> int:
    _claim_out_dir(args)
    points_path, vocab_path, demo_path = (
        Path(args.data) / name for name in ("cleaned.jsonl", "vocab.txt", "demographics.json"))
    inputs = {path: hashlib.sha256() for path in (points_path, vocab_path, demo_path)}
    points = _load_points(points_path, inputs[points_path])
    vocab = Vocabulary.load(vocab_path, inputs[vocab_path])
    with _bad_data(demo_path):
        codec = DemographicCodec.from_dict(
            read_json_object(demo_path, IntegrityError, inputs[demo_path]))
    manifest = _load_split(args.data, args.subset, inputs)
    codec = dataclasses.replace(codec, fields=_parse_fields(args.demographics))
    cfg = ModelConfig(
        feature_dim=int(points[0].features.size),
        d_model=args.d_model,
        d_embed=args.d_model,
        n_heads=args.n_heads,
        vocab_size=len(vocab),
        max_len=args.max_len,
        demographic_dim=codec.dim,
        n_decoder_blocks=args.n_decoder_blocks,
        dropout_rate=args.dropout,
    )
    # each TrainConfig field is the dest of the option that sets it
    train_cfg = TrainConfig(**{f.name: getattr(args, f.name)
                               for f in dataclasses.fields(TrainConfig)})
    params = init_parameters(cfg, seed=args.seed)
    train_examples = encode_examples(_split_points(points, manifest.train_ids),
                                     vocab, codec, cfg)
    val_examples = encode_examples(_split_points(points, manifest.val_ids), vocab, codec, cfg)
    out = Path(args.out)
    log = fit(train_examples, val_examples, params, cfg, train_cfg,
              log_path=out / "trainlog.jsonl")
    save_checkpoint(params, cfg, out / "best", extra={
        "codec": codec.to_dict() if cfg.uses_demographics else None,
        "vocab": vocab.tokens,
    })
    _write_provenance(args, inputs)
    best = log.records[log.best_epoch]
    print(f"trained {len(log.records)} epoch(s); best val loss "
          f"{best.val_loss:.4f} at epoch {best.epoch}; checkpoint at {out / 'best'}")
    return 0


def _generation_stats(generated: list[list[int]], max_len: int) -> dict:
    """Length and truncation statistics of generated id sequences."""
    tokens = sum(len(ids) for ids in generated)
    ended = sum(1 for ids in generated if ids[-1] == END_ID)
    return {
        "reports": len(generated),
        "tokens": tokens,
        "mean_length": tokens / len(generated) if generated else 0.0,
        "end_marker_rate": ended / len(generated) if generated else 0.0,
        "hit_max_len": sum(1 for ids in generated
                           if len(ids) == max_len and ids[-1] != END_ID),
        "unk_emitted": sum(ids.count(UNK_ID) for ids in generated),
    }


def _checkpoint_inputs(source, manifest: dict, cfg: ModelConfig):
    """The vocabulary and the codec (None for an image-only model) that the
    ``manifest`` parsed from the file ``source`` embeds. One that breaks its
    class's rules or does not fit the model ``cfg`` raises ``IntegrityError``
    naming ``source``."""
    extra = manifest["extra"]   # a JSON object: load_from_manifest checked it
    with _bad_data(source):
        vocab = Vocabulary(extra.get("vocab"))
        codec = DemographicCodec.from_dict(extra.get("codec")) if cfg.uses_demographics else None
    if len(vocab) != cfg.vocab_size:
        raise IntegrityError(f"{source}: the vocabulary holds {len(vocab)} tokens, but the "
                             f"model classifies over {cfg.vocab_size}")
    if codec is not None and codec.dim != cfg.demographic_dim:
        raise IntegrityError(f"{source}: the codec encodes {codec.dim}-wide vectors, but the "
                             f"model takes {cfg.demographic_dim}")
    return vocab, codec


def cmd_generate(args) -> int:
    _claim_out_dir(args)
    manifest_path, blob_path = (Path(args.checkpoint) / name
                                for name in (MANIFEST_NAME, BLOB_NAME))
    points_path = Path(args.data) / "cleaned.jsonl"
    inputs = {path: hashlib.sha256() for path in (manifest_path, blob_path, points_path)}
    manifest = read_manifest(args.checkpoint, inputs[manifest_path])
    params, cfg = load_from_manifest(args.checkpoint, manifest, inputs[blob_path])
    vocab, codec = _checkpoint_inputs(manifest_path, manifest, cfg)
    points = _load_points(points_path, inputs[points_path])
    if points[0].features.size != cfg.feature_dim:
        raise ConfigError(f"{args.data} holds {points[0].features.size}-wide features, "
                          f"but the checkpoint's model takes {cfg.feature_dim}")
    split_manifest = _load_split(args.data, args.subset, inputs)
    ids = {"train": split_manifest.train_ids, "val": split_manifest.val_ids,
           "test": split_manifest.test_ids}[args.split]
    if not ids:
        raise ConfigError(f"the {args.split} split of subset {args.subset} in {args.data} "
                          "is empty: there is no report to generate")
    selected = _split_points(points, ids)
    hyp_lines = []
    ref_lines = []
    generated = []
    for index, point in enumerate(selected):
        demo = None if codec is None else codec.encode(point.demographics)
        token_ids = generate(point.features, demo, params, cfg,
                             temperature=args.temperature, seed=[args.seed, index])
        generated.append(token_ids)
        hyp_lines.append(" ".join(decode_ids(token_ids, vocab)))
        ref_lines.append(" ".join(point.report.interior))
    out = Path(args.out)
    write_lines(out / "hyp.txt", hyp_lines)
    write_lines(out / "ref.txt", ref_lines)
    _write_provenance(args, inputs, generation={**_generation_stats(generated, cfg.max_len),
                                                "empty_reports": hyp_lines.count("")})
    print(f"generated {len(hyp_lines)} reports to {out / 'hyp.txt'}")
    return 0


def _read_token_lines(path) -> list[list[str]]:
    return [line.split() for line in read_lines(path)]


def cmd_evaluate(args) -> int:
    hyps = _read_token_lines(args.hypotheses)
    refs = _read_token_lines(args.references)
    try:
        corpus = Corpus.from_lists(hyps, refs)
    except ContractError as exc:
        raise IntegrityError(f"bad evaluation corpus: {exc}") from exc
    table = None
    if args.embeddings:
        table = EmbeddingTable.from_file(args.embeddings, unknown_policy=args.unknown_policy)
    try:
        report = evaluate_corpus(corpus, table)
    except ContractError as exc:   # a token the table lacks, under --unknown-policy error
        raise ConfigError(f"{args.embeddings}: {exc}") from None
    if args.out:
        report.to_json(args.out)
    for name in ("bleu_1", "bleu_2", "bleu_3", "bleu_4"):
        print(f"{name}: {getattr(report, name):.6f}")
    if table is not None:
        print(f"p_embed: {report.p_embed:.6f}")
        print(f"r_embed: {report.r_embed:.6f}")
        print(f"f1_embed: {report.f1_embed:.6f}")
        print(f"note: {report.note}")
    return 0


def cmd_compare(args) -> int:
    if len(args.a) != len(args.b):
        raise ConfigError(f"--a lists {len(args.a)} reports but --b lists {len(args.b)}")
    if len(args.a) < 2:
        raise ConfigError("compare needs at least 2 paired evaluation reports")
    reports_a = [EvaluationReport.from_json(p) for p in args.a]
    reports_b = [EvaluationReport.from_json(p) for p in args.b]
    metric_names = ["bleu_1", "bleu_2", "bleu_3", "bleu_4"]
    if all(r.f1_embed is not None for r in reports_a + reports_b):
        metric_names += ["p_embed", "r_embed", "f1_embed"]
    rows = []
    print(f"{'metric':<10} {'mean_a':>10} {'mean_b':>10} {'t':>10} {'p':>12} significant")
    for name in metric_names:
        a_scores = [getattr(r, name) for r in reports_a]
        b_scores = [getattr(r, name) for r in reports_b]
        try:
            result = paired_t_test(a_scores, b_scores, alpha=args.alpha)
            test = dataclasses.asdict(result)
            shown = (f"{result.t:.4f}", f"{result.p:.6f}", result.significant)
        except DegenerateInputError:   # every paired difference equal: this metric has no t
            test = dict.fromkeys(("t", "p", "significant"))
            shown = ("n/a",) * 3
        rows.append({"metric": name, "mean_a": float(np.mean(a_scores)),
                     "mean_b": float(np.mean(b_scores)), **test})
        print(f"{name:<10} {np.mean(a_scores):>10.4f} {np.mean(b_scores):>10.4f} "
              f"{shown[0]:>10} {shown[1]:>12} {shown[2]}")
    if args.out:
        write_json(args.out, {"alpha": args.alpha, "metrics": rows})
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _at_least(kind, low):
    """An argparse ``type`` that parses a ``kind`` (int or float) and rejects
    one below ``low``, nan or an infinity, so the bad value exits 2 before
    the command runs."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be finite and at least {low}, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cxrgen",
        description="Multi-modal radiology report generation pipeline",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of option values (flags override it)")
        p.add_argument("--seed", type=_at_least(int, 0), default=0, help="master random seed")

    p = sub.add_parser("synth-data", allow_abbrev=False, help="generate a synthetic corpus")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-per-stratum", type=int, default=CorpusSpec.n_per_stratum)
    p.add_argument("--feature-dim", type=int, default=CorpusSpec.feature_dim)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("prepare-data", allow_abbrev=False,
                       help="clean reports, build vocabulary and splits")
    common(p)
    p.add_argument("--data", required=True, help="raw dataset file (jsonl)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--vocab-cap", type=int, default=ModelConfig.vocab_size)
    p.add_argument("--subsets", type=_at_least(int, 1), default=1)
    p.add_argument("--subset-size", type=_at_least(int, 0), default=0,
                   help="examples per subset (0 = pool size / subsets)")
    p.add_argument("--top-ethnicities", type=_at_least(int, 1), default=5)
    p.add_argument("--min-raw-words", type=int, default=DEFAULT_MIN_RAW_WORDS)
    p.add_argument("--age-min", type=int, default=DemographicCodec.age_min)
    p.add_argument("--age-max", type=int, default=DemographicCodec.age_max)
    p.add_argument("--stopwords", help="stop-word file (default: shipped list)")
    p.add_argument("--std-map", help="standardization map file (default: shipped map)")
    p.add_argument("--reject-patterns", help="rejection regex file (default: shipped list)")
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("train", allow_abbrev=False,
                       help="train a model on one prepared subset")
    common(p)
    p.add_argument("--data", required=True, help="prepared data directory")
    p.add_argument("--subset", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for checkpoint and log")
    p.add_argument("--demographics", default=",".join(DemographicCodec.fields),
                   help="comma-separated subset of gender,age,ethnicity; 'none' = baseline")
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    p.add_argument("--n-heads", type=int, default=ModelConfig.n_heads)
    p.add_argument("--n-decoder-blocks", type=int, default=ModelConfig.n_decoder_blocks)
    p.add_argument("--max-len", type=int, default=ModelConfig.max_len)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--grad-clip", type=float, default=TrainConfig.grad_clip)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", allow_abbrev=False, help="decode reports from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="prepared data directory")
    p.add_argument("--subset", type=int, default=0)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", required=True,
                   help="output directory for hyp.txt and ref.txt (one report per line)")
    p.add_argument("--temperature", type=_at_least(float, 0.0), default=0.5)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", allow_abbrev=False,
                       help="score hypotheses against references")
    p.add_argument("--config", help="JSON file of option values (flags override it)")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--embeddings", help="static embedding table (token + floats per line)")
    p.add_argument("--unknown-policy", choices=("error", "zero"), default="error")
    p.add_argument("--out", help="write the report as JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", allow_abbrev=False,
                       help="paired t-test between two models' report sets")
    p.add_argument("--config", help="JSON file of option values (flags override it)")
    p.add_argument("--a", required=True, nargs="+", help="evaluation reports for model A")
    p.add_argument("--b", required=True, nargs="+", help="evaluation reports for model B")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--out", help="write the comparison table as JSON here")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = _parse_args(build_parser(), argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return exc.code
    # OSError: a path that cannot be opened; MemoryError: a model too large for the host
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTEGRITY_EXIT
    except (ContractError, TrainingError) as exc:   # ShapeError, DegenerateInputError too
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
