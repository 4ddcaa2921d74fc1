"""Operator-facing command line: synth-data, prepare-data, train, generate,
evaluate, compare.

Every artifact-producing command writes a ``provenance.json`` next to its
outputs holding the fully resolved options, seeds, and sha256 checksums of
its inputs, which is sufficient to reproduce the artifact bit for bit.
``generate`` adds a ``generation`` block: reports, tokens emitted, mean
length, end-marker hit rate, reports cut at ``max_len``, ``<unk>`` ids
emitted, and empty reports (the end marker emitted first), which are
written as empty lines and scored by ``evaluate``.

Options may come from a JSON config file (``--config``), required ones
included. Its values are parsed like flags, so a value of the wrong type or
outside an option's choices exits 2; explicit command line flags win over
config-file values, which win over built-in defaults.

Exit codes: 0 success, 2 usage or configuration error (a path that cannot
be opened is one, and so is a checkpoint whose feature width differs from
the prepared data's), 3 data integrity failure (text input that is not UTF-8
is one, and so are a checkpoint of format 1 or 2, a bad dataset record and a
demographics manifest that lacks a key), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, read_manifest, save_checkpoint
from .data import (CorpusSpec, build_datapoints, load_prepared_dataset, load_raw_records,
                   sample_subsets, split, synthesize_corpus, write_dataset,
                   write_prepared_dataset, SplitManifest)
from .demographics import ALL_FIELDS, DemographicCodec, select_top_categories
from .errors import (ConfigError, ContractError, CxrgenError, DegenerateInputError,
                     IntegrityError, SizingError, TrainingError)
from .metrics import Corpus, EmbeddingTable, EvaluationReport, evaluate_corpus, paired_t_test
from .model import ModelConfig, generate, init_parameters
from .text import (END_ID, UNK_ID, StandardizationMap, Vocabulary, build_vocabulary,
                   decode_ids, load_reject_patterns, load_stopwords)
from .training import TrainConfig, encode_examples, fit

USAGE_EXIT = 2
INTEGRITY_EXIT = 3
NUMERIC_EXIT = 4


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_provenance(out_dir, command: str, options: dict, inputs=(), **sections) -> None:
    payload = {
        "command": command,
        "options": options,
        "inputs": {str(p): _sha256_file(p) for p in inputs},
        **sections,
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "provenance.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv`` with the --config file's values as option tokens.

    The file's ``{"key": value}`` pairs become ``--key=value`` tokens (a list
    becomes ``--key item ...``) placed after the command name and before the
    explicit flags, so argparse converts and checks them like flags, required
    options included, and an explicit flag, parsed later, wins.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    path, values = None, {}
    for token, following in zip(argv, argv[1:] + [None]):
        if token == "--config":
            path = following
        elif token.startswith("--config="):
            path = token.partition("=")[2]
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    tokens = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            tokens += [flag, *map(str, value)]
        elif value is None or isinstance(value, (bool, dict)):
            raise ConfigError(f"config file {path}: {key!r} is not a flag value: "
                              f"{json.dumps(value)}")
        else:
            tokens.append(f"{flag}={value}")
    args = parser.parse_args(argv[:1] + tokens + argv[1:])
    # argparse accepts an unambiguous prefix of an option name
    if args.config != path:
        raise ConfigError("write --config in full, not as an abbreviation")
    abbreviated = [key for key in values if key.replace("-", "_") not in vars(args)]
    if abbreviated:
        raise ConfigError(f"config file {path}: unknown option(s) {abbreviated}; "
                          "write option names in full")
    return args


def _cleaning_inputs(args):
    return (load_stopwords(args.stopwords), StandardizationMap.from_file(args.std_map),
            load_reject_patterns(args.reject_patterns))


def _parse_fields(raw: str) -> tuple[str, ...]:
    raw = raw.strip().lower()
    if raw in ("", "none", "baseline"):
        return ()
    fields = tuple(part.strip() for part in raw.split(",") if part.strip())
    bad = [f for f in fields if f not in ALL_FIELDS]
    if bad:
        raise ConfigError(f"unknown demographic fields {bad}; valid: {list(ALL_FIELDS)}")
    return fields


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth_data(args) -> int:
    spec = CorpusSpec(n_per_stratum=args.n_per_stratum, feature_dim=args.feature_dim)
    points = synthesize_corpus(spec, args.seed)
    out = Path(args.out)
    write_dataset(points, out / "dataset.jsonl")
    _write_provenance(out, "synth-data", {
        "seed": args.seed,
        "spec": dataclasses.asdict(spec),
    })
    print(f"wrote {len(points)} synthetic records to {out / 'dataset.jsonl'}")
    return 0


def cmd_prepare_data(args) -> int:
    data_path = Path(args.data)
    records = load_raw_records(data_path)
    if not records:
        raise IntegrityError(f"{data_path} holds no records")
    stopwords, std_map, patterns = _cleaning_inputs(args)
    points, rejects = build_datapoints(records, stopwords, std_map, patterns,
                                       min_raw_words=args.min_raw_words)
    if not points:
        raise IntegrityError("every record was rejected by the cleaning pipeline")
    categories, under_k = select_top_categories(
        [p.demographics for p in points], args.top_ethnicities)
    vocab = build_vocabulary([p.report for p in points], cap=args.vocab_cap)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_prepared_dataset(points, out / "cleaned.jsonl")
    with open(out / "rejects.jsonl", "w", encoding="utf-8") as fh:
        for reject in rejects:
            fh.write(json.dumps({"id": reject.id, "reason": reject.reason,
                                 "detail": reject.detail}) + "\n")
    vocab.save(out / "vocab.txt")
    with open(out / "demographics.json", "w", encoding="utf-8") as fh:
        json.dump({
            "categories": categories,
            "under_k": under_k,
            "age_min": args.age_min,
            "age_max": args.age_max,
        }, fh, indent=2)
        fh.write("\n")

    subset_size = args.subset_size or len(points) // args.subsets
    subsets = sample_subsets(points, args.subsets, subset_size, args.seed)
    splits_dir = out / "splits"
    splits_dir.mkdir(exist_ok=True)
    for i, ids in enumerate(subsets):
        manifest = split(ids, seed=args.seed + i, subset_id=i,
                         params={"source": str(data_path), "subset_size": subset_size})
        manifest.save(splits_dir / f"subset_{i}.json")
    _write_provenance(out, "prepare-data", {
        "seed": args.seed,
        "vocab_cap": args.vocab_cap,
        "subsets": args.subsets,
        "subset_size": subset_size,
        "top_ethnicities": args.top_ethnicities,
        "min_raw_words": args.min_raw_words,
        "age_min": args.age_min,
        "age_max": args.age_max,
    }, inputs=[data_path])
    print(f"kept {len(points)} reports ({len(rejects)} rejected), "
          f"vocabulary size {len(vocab)}, {args.subsets} subset(s) of {subset_size}")
    return 0


def _load_prepared(data_dir):
    data_dir = Path(data_dir)
    points = load_prepared_dataset(data_dir / "cleaned.jsonl")
    if not points:
        raise IntegrityError(f"{data_dir / 'cleaned.jsonl'} holds no records")
    vocab = Vocabulary.load(data_dir / "vocab.txt")
    try:
        with open(data_dir / "demographics.json", encoding="utf-8") as fh:
            demo_payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"cannot read demographics manifest: {exc}") from exc
    missing = [key for key in ("categories", "age_min", "age_max")
               if not isinstance(demo_payload, dict) or key not in demo_payload]
    if missing:
        raise IntegrityError(f"{data_dir / 'demographics.json'}: missing key {missing[0]!r}")
    return points, vocab, demo_payload


def _load_split(data_dir, subset: int) -> SplitManifest:
    path = Path(data_dir) / "splits" / f"subset_{subset}.json"
    if not path.exists():
        raise ConfigError(f"no split manifest for subset {subset} at {path}")
    return SplitManifest.load(path)


def _split_points(points, ids) -> list:
    """The prepared points that a split's ``ids`` name, in the split's order."""
    by_id = {p.id: p for p in points}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise IntegrityError(f"split references unknown ids, e.g. {missing[:3]}")
    return [by_id[i] for i in ids]


def cmd_train(args) -> int:
    points, vocab, demo_payload = _load_prepared(args.data)
    manifest = _load_split(args.data, args.subset)
    fields = _parse_fields(args.demographics)
    codec = DemographicCodec(
        categories=tuple(demo_payload["categories"]),
        fields=fields or ALL_FIELDS,
        age_min=int(demo_payload["age_min"]),
        age_max=int(demo_payload["age_max"]),
    )
    cfg = ModelConfig(
        feature_dim=int(points[0].features.size),
        d_model=args.d_model,
        d_embed=args.d_model,
        n_heads=args.n_heads,
        vocab_size=len(vocab),
        max_len=args.max_len,
        demographic_dim=codec.dim if fields else 0,
        n_decoder_blocks=args.n_decoder_blocks,
        dropout_rate=args.dropout,
    )
    train_cfg = TrainConfig(
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        seed=args.seed,
        patience=args.patience,
        grad_clip=args.grad_clip,
    )
    params = init_parameters(cfg, seed=args.seed)
    train_examples = encode_examples(_split_points(points, manifest.train_ids),
                                     vocab, codec, cfg)
    val_examples = encode_examples(_split_points(points, manifest.val_ids), vocab, codec, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "trainlog.jsonl"
    log_path.write_text("")
    log = fit(train_examples, val_examples, params, cfg, train_cfg, log_path=log_path)
    save_checkpoint(params, cfg, out / "best", extra={
        "codec": codec.to_dict() if fields else None,
        "demographic_fields": list(fields),
        "vocab": vocab.tokens,
        "subset": args.subset,
    })
    _write_provenance(out, "train", {
        "data": str(args.data),
        "subset": args.subset,
        "demographics": list(fields),
        "model": cfg.to_dict(),
        "training": dataclasses.asdict(train_cfg),
    }, inputs=[Path(args.data) / "cleaned.jsonl", Path(args.data) / "vocab.txt"])
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


def cmd_generate(args) -> int:
    params, cfg = load_checkpoint(args.checkpoint)
    manifest_extra = read_manifest(args.checkpoint).get("extra") or {}
    if "vocab" not in manifest_extra:
        raise IntegrityError("checkpoint manifest lacks the embedded vocabulary")
    vocab = Vocabulary(manifest_extra["vocab"])
    fields = tuple(manifest_extra.get("demographic_fields") or ())
    codec = (DemographicCodec.from_dict(manifest_extra["codec"])
             if manifest_extra.get("codec") else None)
    points, _, _ = _load_prepared(args.data)
    if points[0].features.size != cfg.feature_dim:
        raise ConfigError(f"{args.data} holds {points[0].features.size}-wide features, "
                          f"but the checkpoint's model takes {cfg.feature_dim}")
    split_manifest = _load_split(args.data, args.subset)
    ids = {"train": split_manifest.train_ids, "val": split_manifest.val_ids,
           "test": split_manifest.test_ids}[args.split]
    selected = _split_points(points, ids)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    hyp_lines = []
    ref_lines = []
    generated = []
    for index, point in enumerate(selected):
        demo = codec.encode(point.demographics) if (fields and codec) else None
        token_ids = generate(point.features, demo, params, cfg,
                             temperature=args.temperature, seed=[args.seed, index])
        generated.append(token_ids)
        hyp_lines.append(" ".join(decode_ids(token_ids, vocab)))
        ref_lines.append(" ".join(point.report.interior))
    out.write_text("\n".join(hyp_lines) + "\n", encoding="utf-8")
    if args.refs_out:
        Path(args.refs_out).write_text("\n".join(ref_lines) + "\n", encoding="utf-8")
    _write_provenance(out.parent, "generate", {
        "checkpoint": str(args.checkpoint),
        "data": str(args.data),
        "subset": args.subset,
        "split": args.split,
        "temperature": args.temperature,
        "seed": args.seed,
        "out": str(out),
    }, inputs=[Path(args.checkpoint) / "params.bin"],
        generation={**_generation_stats(generated, cfg.max_len),
                    "empty_reports": hyp_lines.count("")})
    print(f"generated {len(hyp_lines)} reports to {out}")
    return 0


def _read_token_lines(path) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [line.split() for line in fh.read().splitlines()]
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"{path} is not UTF-8 text: {exc}") from None


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
        result = paired_t_test(a_scores, b_scores, alpha=args.alpha)
        rows.append({
            "metric": name,
            "mean_a": float(np.mean(a_scores)),
            "mean_b": float(np.mean(b_scores)),
            "t": result.t,
            "p": result.p,
            "significant": result.significant,
        })
        print(f"{name:<10} {np.mean(a_scores):>10.4f} {np.mean(b_scores):>10.4f} "
              f"{result.t:>10.4f} {result.p:>12.6f} {result.significant}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"alpha": args.alpha, "metrics": rows}, fh, indent=2)
            fh.write("\n")
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of option values (flags override it)")
        p.add_argument("--seed", type=_at_least(int, 0), default=0, help="master random seed")

    p = sub.add_parser("synth-data", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-per-stratum", type=int, default=150)
    p.add_argument("--feature-dim", type=int, default=24)
    p.set_defaults(func=cmd_synth_data)

    p = sub.add_parser("prepare-data", help="clean reports, build vocabulary and splits")
    common(p)
    p.add_argument("--data", required=True, help="raw dataset file (jsonl)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--vocab-cap", type=int, default=2212)
    p.add_argument("--subsets", type=_at_least(int, 1), default=1)
    p.add_argument("--subset-size", type=_at_least(int, 0), default=0,
                   help="examples per subset (0 = pool size / subsets)")
    p.add_argument("--top-ethnicities", type=_at_least(int, 1), default=5)
    p.add_argument("--min-raw-words", type=int, default=9)
    p.add_argument("--age-min", type=int, default=19)
    p.add_argument("--age-max", type=int, default=91)
    p.add_argument("--stopwords", help="stop-word file (default: shipped list)")
    p.add_argument("--std-map", help="standardization map file (default: shipped map)")
    p.add_argument("--reject-patterns", help="rejection regex file (default: shipped list)")
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("train", help="train a model on one prepared subset")
    common(p)
    p.add_argument("--data", required=True, help="prepared data directory")
    p.add_argument("--subset", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory for checkpoint and log")
    p.add_argument("--demographics", default="gender,age,ethnicity",
                   help="comma-separated subset of gender,age,ethnicity; 'none' = baseline")
    p.add_argument("--d-model", type=int, default=512)
    p.add_argument("--n-heads", type=int, default=8)
    p.add_argument("--n-decoder-blocks", type=int, default=1)
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--learning-rate", type=float, default=3e-4)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--grad-clip", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode reports from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="prepared data directory")
    p.add_argument("--subset", type=int, default=0)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--out", required=True, help="hypotheses file (one report per line)")
    p.add_argument("--refs-out", help="also write matching references here")
    p.add_argument("--temperature", type=_at_least(float, 0.0), default=0.5)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--config", help="JSON file of option values (flags override it)")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--embeddings", help="static embedding table (token + floats per line)")
    p.add_argument("--unknown-policy", choices=("error", "zero"), default="error")
    p.add_argument("--out", help="write the report as JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="paired t-test between two models' report sets")
    p.add_argument("--config", help="JSON file of option values (flags override it)")
    p.add_argument("--a", required=True, nargs="+", help="evaluation reports for model A")
    p.add_argument("--b", required=True, nargs="+", help="evaluation reports for model B")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", help="write the comparison table as JSON here")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    try:
        args = _parse_args(build_parser(), argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
        return exc.code
    except (ConfigError, SizingError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:  # a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except IntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTEGRITY_EXIT
    except (ContractError, TrainingError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except CxrgenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
