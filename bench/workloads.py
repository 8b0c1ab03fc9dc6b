"""The three benchmark workloads: their inputs, set-up, items and output checks.

Each workload calls the public functions the ``notesetter`` CLI calls, in the
order the CLI calls them:

* ``train``         - ``load_manifest`` + ``load_corpus`` (set-up), then one
                      ``trainer.train`` per item.
* ``predict-short`` - checkpoint load (set-up), then ``predict_file`` +
                      ``write_predictions`` per file, many small files.
* ``engrave``       - ``engrave_dump`` + writing the MusicXML per bundle.

Item functions touch only the program; digests and checks run outside the
timed region. The module-level lookups (``pipeline.write_predictions``,
``checkpoint.load_checkpoint``) are deliberate: the traced run rebinds those
module attributes to record spans.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from notesetter import checkpoint, cli, pipeline, postprocess, trainer
from notesetter.config import load_run_config
from notesetter.decoders import NODE_HEADS
from notesetter.model import init_params
from notesetter.musicxml import parse_musicxml, validate_subset
from notesetter.rng import Rng

import gen

# Refusals the CLI maps to an exit code; anything else is a benchmark error.
REFUSALS = tuple(cli.EXIT_CODES)

# Voice layouts cycled over the pieces of a workload, so every seed gets the
# same mix of sizes and only the content varies.
MIXED_VOICES = ((2, 1), (1, 2))
TRAIN_NAMES = tuple(f"train-{i:02d}" for i in range(1, 9))  # train-08 validates

WORKLOADS = {
    "train": dict(bars=6, hidden_size=64, num_layers=3, epochs=3),
    "predict-short": dict(pieces=48, bars=8, hidden_size=256, num_layers=3),
    # engrave pieces share one length and one noise level, so the timed
    # items cost about the same and the median piece time pools every record
    # instead of jumping between items of different sizes
    "engrave": dict(pieces=16, bars=24, sigma=1.0, probe_sigmas=(1.5, 2.0)),
}


def run_config(workload: str, seed: int):
    spec = WORKLOADS[workload]
    overrides = {"seed": seed}
    for key in ("hidden_size", "num_layers", "epochs"):
        if key in spec:
            overrides[key] = spec[key]
    return load_run_config(None, overrides)


def _triples_digest(notes) -> str:
    triples = sorted((n.onset_div, n.duration_div, n.midi_pitch) for n in notes)
    return hashlib.sha256(json.dumps(triples).encode()).hexdigest()


# --- inputs ---

def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under ``work``; returns the plan."""
    spec = WORKLOADS[workload]
    inputs = work / "inputs"
    outputs = work / "outputs"
    inputs.mkdir(parents=True)
    outputs.mkdir(parents=True)
    plan = {"workload": workload, "seed": seed, "items": [], "probe": []}

    if workload == "train":
        for i, name in enumerate(TRAIN_NAMES):
            piece = gen.PieceSpec(name, seed * 1000 + i, spec["bars"],
                                  triplet=i % 4 == 3,
                                  voices=MIXED_VOICES[i % 2],
                                  numerator=3 if i % 3 == 2 else 4)
            path, score = gen.write_piece(piece, inputs)
            gen.self_check(path, score)
        # the manifest seed stays fixed, so every seed trains on the same
        # split of the same names
        manifest = pipeline.ingest_corpus(inputs, seed=0)
        plan["manifest"] = str(work / "manifest.json")
        pipeline.write_manifest(manifest, Path(plan["manifest"]))
        corpus = pipeline.load_corpus(manifest, split="train")
        train_set, _ = trainer.split_corpus(
            corpus, run_config(workload, seed).val_fraction)
        # one item is a whole training run: notes and pieces count per step
        epochs = spec["epochs"]
        plan["items"] = [{
            "id": "corpus", "out": str(outputs),
            "notes": epochs * sum(len(s.notes) for s in train_set),
            "steps": epochs * len(train_set)}]
        return plan

    if workload.startswith("predict"):
        config = run_config(workload, seed)
        plan["checkpoint"] = str(gen.write_checkpoint(
            config.model_config(), seed, inputs / "model.ckpt"))
        for i in range(spec["pieces"]):
            piece = gen.PieceSpec(f"{workload}-{i:02d}", seed * 1000 + i,
                                  spec["bars"], triplet=i % 4 == 3,
                                  voices=MIXED_VOICES[i % 2])
            path, score = gen.write_piece(piece, inputs)
            gen.self_check(path, score)
            plan["items"].append({
                "id": piece.name, "path": str(path), "notes": len(score.notes),
                "out": str(outputs / f"{piece.name}.pred.jsonl")})
        return plan

    # engrave: every piece at the timed noise level, and every other piece
    # at a noisier level for the refusal probe (untimed). The perfect bundles
    # themselves are engraved and checked here, untimed
    perfect = []
    for i in range(spec["pieces"]):
        piece = gen.PieceSpec(f"engrave-{i:02d}", seed * 1000 + i, spec["bars"],
                              triplet=i % 4 == 2, voices=MIXED_VOICES[i % 2])
        score = gen.make_piece(piece)
        bundle = postprocess.perfect_bundle(score)
        gen.check_perfect_export(score, bundle)
        perfect.append((score, bundle))

    def add(key, score, bundle, sigma, noise_seed):
        name = f"{score.name}-s{sigma:g}"
        path = inputs / f"{name}.pred.jsonl"
        pipeline.write_predictions(
            path, score, gen.noisy_bundle(bundle, sigma, noise_seed))
        plan[key].append({
            "id": name, "path": str(path), "notes": len(score.notes),
            "out": str(outputs / f"{name}.musicxml"),
            "notes_digest": _triples_digest(score.notes)})

    for i, (score, bundle) in enumerate(perfect):
        add("items", score, bundle, spec["sigma"], seed * 1000 + 100 + i)
    probe_sigmas = spec["probe_sigmas"]
    for i, (score, bundle) in enumerate(perfect[::2]):
        add("probe", score, bundle, probe_sigmas[i % len(probe_sigmas)],
            seed * 1000 + 900 + i)
    return plan


# --- set-up (what the CLI does before its first item) ---

def setup(plan: dict) -> dict:
    workload = plan["workload"]
    config = run_config(workload, plan["seed"])
    state = {"config": config, "model_config": config.model_config()}
    if workload == "train":
        manifest = pipeline.load_manifest(Path(plan["manifest"]))
        state["corpus"] = pipeline.load_corpus(manifest, split="train")
    elif workload.startswith("predict"):
        tensors, meta = checkpoint.load_checkpoint(plan["checkpoint"])
        if meta.get("model") != state["model_config"].shape_dict():
            raise ValueError("checkpoint shape does not match the workload")
        params = init_params(state["model_config"], Rng(config.seed))
        checkpoint.restore_params(params, tensors)
        state["params"] = params
    return state


# --- items (timed) ---

def run_item(workload: str, state: dict, item: dict):
    if workload == "train":
        return trainer.train(state["corpus"], state["model_config"],
                             state["config"].train_config(),
                             out_dir=Path(item["out"]))
    if workload.startswith("predict"):
        score, bundle = pipeline.predict_file(Path(item["path"]),
                                              state["params"],
                                              state["model_config"])
        pipeline.write_predictions(Path(item["out"]), score, bundle)
        return bundle
    config = state["config"]
    data = pipeline.engrave_dump(Path(item["path"]),
                                 threshold=config.threshold,
                                 pair_agg=config.pair_agg)
    Path(item["out"]).write_bytes(data)
    return data


# --- digests and checks (untimed) ---

def bundle_digest(bundle) -> str:
    h = hashlib.sha256()
    for head in NODE_HEADS:
        h.update(np.ascontiguousarray(bundle.note_logits[head]).tobytes())
    h.update(bundle.staff_probs.tobytes())
    for pairs, probs in ((bundle.voice_pairs, bundle.voice_probs),
                         (bundle.chord_pairs, bundle.chord_probs)):
        h.update(np.asarray(pairs, dtype=np.int64).tobytes())
        h.update(np.asarray(probs, dtype=np.float64).tobytes())
    return h.hexdigest()


def digest(workload: str, item: dict, outcome) -> dict:
    """What an item produced, reduced to values that must repeat exactly."""
    if workload == "train":
        _, result = outcome
        ckpt = Path(item["out"]) / "best.ckpt"
        return {"losses": [float(x).hex() for x in result.train_losses],
                "val_losses": [float(x).hex() for x in result.val_losses],
                "loss_final": result.train_losses[-1],
                "ckpt": hashlib.sha256(ckpt.read_bytes()).hexdigest()}
    if workload.startswith("predict"):
        return {"bundle": bundle_digest(outcome)}
    return {"xml": hashlib.sha256(outcome).hexdigest()}


def check(plan: dict, records: list[dict], key: str = "items") -> list[str]:
    """Check every output of ``plan[key]`` against its records; returns the
    problems found."""
    problems = []
    by_item: dict[int, list[dict]] = {}
    for rec in records:
        if rec["outcome"] == "ok":
            by_item.setdefault(rec["item"], []).append(rec)
    for index, recs in sorted(by_item.items()):
        item = plan[key][index]
        if len({json.dumps(r["digest"], sort_keys=True) for r in recs}) != 1:
            problems.append(f"{item['id']}: output differs between repeats")
        try:
            problems += _check_item(plan, item, recs[0]["digest"])
        except (ValueError, RuntimeError, OSError) as exc:
            problems.append(f"{item['id']}: {type(exc).__name__}: {exc}")
    return problems


def _check_item(plan: dict, item: dict, first: dict) -> list[str]:
    workload = plan["workload"]
    if workload == "train":
        return _check_train(plan, item, first)
    if workload.startswith("predict"):
        # read_predictions runs bundle.validate() on what it parsed
        bundle = pipeline.read_predictions(Path(item["out"]))[1]
        if bundle_digest(bundle) != first["bundle"]:
            return [f"{item['id']}: JSONL round trip changed the bundle"]
        return []
    problems = []
    data = Path(item["out"]).read_bytes()
    if hashlib.sha256(data).hexdigest() != first["xml"]:
        problems.append(f"{item['id']}: written MusicXML differs")
    validate_subset(data)
    if _triples_digest(parse_musicxml(data).score.notes) != item["notes_digest"]:
        problems.append(f"{item['id']}: re-parse lost or changed notes")
    return problems


def _check_train(plan: dict, item: dict, first: dict) -> list[str]:
    problems = []
    losses = [float.fromhex(x) for x in first["losses"] + first["val_losses"]]
    if not all(math.isfinite(x) for x in losses):
        problems.append("train: non-finite loss")
    config = run_config("train", plan["seed"])
    out = Path(item["out"])
    tensors, meta = checkpoint.load_checkpoint(out / "best.ckpt")
    params = init_params(config.model_config(), Rng(0))
    checkpoint.restore_params(params, tensors)
    if meta.get("model") != config.model_config().shape_dict():
        problems.append("train: checkpoint records the wrong model shape")
    rows = (out / "metrics.csv").read_text().splitlines()
    if len(rows) != config.epochs + 1:
        problems.append(f"train: metrics.csv has {len(rows)} lines")
    return problems
