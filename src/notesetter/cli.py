"""The ``notesetter`` command line tool.

Subcommands cover the whole batch pipeline: ``ingest`` builds a corpus
manifest, ``train`` fits a model, ``predict`` dumps per-piece predictions,
``engrave`` turns dumps into MusicXML, ``eval`` scores a checkpoint, and
``gradcheck``/``graph-dump`` are developer utilities.

Failures from known error categories print exactly one line to stderr,
``ERROR <Category>: <message>``, and exit with a category-specific status so
batch drivers can triage without scraping tracebacks.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from .autodiff import Value, reset_tape
from .checkpoint import (BadCheckpoint, ChecksumMismatch, load_checkpoint,
                         restore_params)
from .config import BadConfig, RunConfig, config_hash, load_run_config
from .graph import EmptyScore, coverage_report, dump_graph_jsonl
from .model import (graph_for, init_params, loss_for_score, param_shapes,
                    predict_bundle)
from .musicxml import (InconsistentTiming, MalformedXml, TooManyVoices,
                       UnrepresentableDuration, UnsupportedElement,
                       read_score_file)
from .optim import NonFiniteLoss, grad_check
from .pipeline import (MissingInput, engrave_bytes, ingest_corpus, load_corpus,
                       load_manifest, read_predictions, write_manifest,
                       write_predictions)
from .postprocess import PAIR_AGGS, UnfillableGap
from .rng import Rng
from .synth import random_score
from .trainer import DivergedLoss, EmptyCorpus, evaluate_corpus, train

EXIT_CODES = {
    BadConfig: 2,
    MissingInput: 3,
    ChecksumMismatch: 4,
    BadCheckpoint: 4,
    MalformedXml: 5,
    UnsupportedElement: 5,
    InconsistentTiming: 5,
    EmptyScore: 5,
    UnfillableGap: 6,
    TooManyVoices: 6,
    UnrepresentableDuration: 6,
    EmptyCorpus: 7,
    DivergedLoss: 7,
    NonFiniteLoss: 7,
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--hidden-size", type=int, default=None)
    parser.add_argument("--layers", dest="num_layers", type=int,
                        default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--lr", type=float, default=None)
    parser.add_argument("--weight-decay", type=float, default=None)
    parser.add_argument("--threshold", type=float, default=None)
    parser.add_argument("--strict-same-bar-candidates",
                        action="store_const", const=True, default=None,
                        help="restrict voice candidates to the same bar")
    parser.add_argument("--out-dir", type=Path, default=None)


def _run_config(args):
    """The run's settings: every flag whose dest is a ``RunConfig`` field
    overrides the config file."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields}
    return load_run_config(args.config, overrides)


def _need_out_dir(args) -> Path:
    if args.out_dir is None:
        raise BadConfig(f"{args.command} requires --out-dir")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _refuse_shared_outputs(inputs, names: list[str]) -> None:
    """Refuse two inputs whose output file ``names`` are the same."""
    first: dict[str, Path] = {}
    for path, name in zip(inputs, names):
        if name in first:
            raise MissingInput(f"inputs {first[name]} and {path} would both "
                               f"write {name}; input stems must be unique")
        first[name] = path


def _refuse_missing_inputs(inputs) -> None:
    """Refuse the run before it writes anything if an input is missing."""
    for path in inputs:
        if not Path(path).is_file():
            raise MissingInput(f"input {path} does not exist")


def _read_scores(inputs) -> list:
    """Every input's score, read before anything is written; a missing
    input and a score with no notes are refused."""
    _refuse_missing_inputs(inputs)
    scores = [read_score_file(path).score for path in inputs]
    for path, score in zip(inputs, scores):
        if not len(score.onset):
            raise EmptyScore(f"{path} has no notes")
    return scores


def _echo_config(config, out_dir: Path) -> None:
    text = config.to_text() + f"# config_hash = {config_hash(config)}\n"
    (out_dir / "config.effective").write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notesetter",
        description="Engrave quantized piano music as MusicXML.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="scan a corpus into a manifest")
    p.add_argument("--in-dir", type=Path, required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("--manifest", type=Path, required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="run a checkpoint over score files")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("inputs", nargs="+", type=Path)
    _add_common_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("engrave", help="turn prediction dumps into MusicXML")
    p.add_argument("inputs", nargs="+", type=Path)
    p.add_argument("--pair-agg", choices=PAIR_AGGS, default=None)
    _add_common_flags(p)
    p.set_defaults(func=cmd_engrave)

    p = sub.add_parser("eval", help="score a checkpoint against a manifest split")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    _add_common_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--notes", type=int, default=10)
    p.add_argument("--entries", type=int, default=3,
                   help="entries sampled per parameter tensor")
    p.add_argument("--tolerance", type=float, default=1e-4)
    _add_common_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("graph-dump", help="dump score graph edges as JSONL")
    p.add_argument("inputs", nargs="+", type=Path)
    _add_common_flags(p)
    p.set_defaults(func=cmd_graph_dump)
    return parser


def cmd_ingest(args) -> int:
    config = _run_config(args)
    out_dir = _need_out_dir(args)
    manifest = ingest_corpus(args.in_dir, config.seed)
    write_manifest(manifest, out_dir / "manifest.json")
    _echo_config(config, out_dir)
    train_n = sum(1 for p in manifest["pieces"] if p["split"] == "train")
    print(f"ingested {len(manifest['pieces'])} pieces "
          f"({train_n} train / {len(manifest['pieces']) - train_n} test) "
          f"-> {out_dir / 'manifest.json'}")
    return 0


def cmd_train(args) -> int:
    config = _run_config(args)
    out_dir = _need_out_dir(args)
    _echo_config(config, out_dir)
    manifest = load_manifest(args.manifest)
    corpus = load_corpus(manifest, split="train")
    params, result = train(corpus, config.model_config(),
                           config.train_config(), out_dir=out_dir)
    print(f"trained on {len(corpus)} pieces for {result.epochs_run} epochs; "
          f"best epoch {result.best_epoch} "
          f"(selection loss {result.best_loss:.6f}) "
          f"-> {result.checkpoint_path}")
    return 0


def _load_params(args, config):
    model_config = config.model_config()
    _refuse_missing_inputs([args.checkpoint])
    tensors, meta = load_checkpoint(args.checkpoint)
    want = model_config.shape_dict()
    have = meta.get("model")
    if have != want:
        raise BadConfig(
            f"checkpoint shape {have} does not match configured shape {want}; "
            f"pass the matching --hidden-size/--layers or config file")
    # float32, the dtype predict_bundle runs in, so no call copies them again
    params = {name: Value(np.zeros(shape, dtype=np.float32))
              for name, shape, _ in param_shapes(model_config)}
    restore_params(params, tensors)
    return params, model_config


def cmd_predict(args) -> int:
    config = _run_config(args)
    names = [f"{Path(path).stem}.pred" for path in args.inputs]
    _refuse_shared_outputs(args.inputs, names)
    params, model_config = _load_params(args, config)
    scores = _read_scores(args.inputs)
    out_dir = _need_out_dir(args)
    _echo_config(config, out_dir)
    for path, name, score in zip(args.inputs, names, scores):
        bundle = predict_bundle(score, params, model_config)
        out_path = out_dir / name
        write_predictions(out_path, score, bundle)
        print(f"{path} -> {out_path} "
              f"({len(score.onset)} notes, "
              f"{len(bundle.voice_pairs)} candidates)")
    return 0


def cmd_engrave(args) -> int:
    config = _run_config(args)
    names = [f"{Path(path).stem.removesuffix('.pred')}.musicxml"
             for path in args.inputs]
    _refuse_shared_outputs(args.inputs, names)
    _refuse_missing_inputs(args.inputs)
    dumps = [read_predictions(path) for path in args.inputs]
    out_dir = _need_out_dir(args)
    _echo_config(config, out_dir)
    for path, name, (score, bundle) in zip(args.inputs, names, dumps):
        out_path = out_dir / name
        out_path.write_bytes(engrave_bytes(score, bundle, config.threshold,
                                           config.pair_agg))
        print(f"{path} -> {out_path}")
    return 0


def cmd_eval(args) -> int:
    config = _run_config(args)
    params, model_config = _load_params(args, config)
    manifest = load_manifest(args.manifest)
    split = None if args.split == "all" else args.split
    corpus = load_corpus(manifest, split=split)
    if not corpus:
        raise EmptyCorpus(f"manifest has no pieces in split {args.split!r}")
    report = evaluate_corpus(corpus, params, model_config,
                             threshold=config.threshold)
    print(report.table())
    if args.out_dir is not None:
        out_dir = _need_out_dir(args)
        _echo_config(config, out_dir)
        (out_dir / "eval.json").write_text(report.to_json() + "\n",
                                           encoding="utf-8")
        print(f"wrote {out_dir / 'eval.json'}")
    return 0


def cmd_gradcheck(args) -> int:
    config = _run_config(args)
    if args.notes < 1 or args.entries < 1:
        raise BadConfig("gradcheck needs --notes and --entries of at least 1")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0.0):
        raise BadConfig(f"--tolerance {args.tolerance} must be finite and "
                        "positive")
    model_config = config.model_config()
    score = random_score(seed=config.seed, n_notes=args.notes)
    graph = graph_for(score, model_config)
    params = init_params(model_config, Rng(config.seed))

    def loss_fn():
        reset_tape()
        return loss_for_score(score, graph, params, model_config,
                              rng=Rng(config.seed + 1)).total

    report = grad_check(loss_fn, params,
                        entries_per_param=args.entries,
                        rng=Rng(config.seed + 2))
    print(report)
    ok = report.passed(args.tolerance)
    print(f"{'PASS' if ok else 'FAIL'}: max relative error "
          f"{report.max_error:.3e} vs tolerance {args.tolerance:.1e}")
    return 0 if ok else 1


def cmd_graph_dump(args) -> int:
    config = _run_config(args)
    names = [f"{Path(path).stem}.graph.jsonl" for path in args.inputs]
    if args.out_dir is not None:
        _refuse_shared_outputs(args.inputs, names)
    scores = _read_scores(args.inputs)
    out_dir = None if args.out_dir is None else _need_out_dir(args)
    for path, name, score in zip(args.inputs, names, scores):
        text = dump_graph_jsonl(graph_for(score, config))
        if out_dir is None:
            sys.stdout.write(text)
        else:
            out_path = out_dir / name
            out_path.write_text(text, encoding="utf-8")
            print(f"{path} -> {out_path}")
            if score.labels is not None:
                print(coverage_report(score, cross_bar=config.cross_bar))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
