"""Tests for the training loop, split logic, and corpus evaluation."""

import csv
import dataclasses
import math
import zlib

import numpy as np
import pytest

from notesetter import autodiff as ad, graph
from notesetter.checkpoint import load_checkpoint
from notesetter.optim import NonFiniteLoss
from notesetter.metrics import EvalReport
from notesetter.model import ModelConfig, graph_for
from notesetter.rng import Rng
from notesetter.synth import random_score
from notesetter.trainer import (
    DivergedLoss,
    EmptyCorpus,
    TrainConfig,
    evaluate_corpus,
    is_validation_name,
    split_corpus,
    train,
)

SMALL = ModelConfig(hidden_size=8, num_layers=1, dropout=0.0)
FAST = TrainConfig(epochs=4, lr=1e-2, weight_decay=0.0, seed=0,
                   val_fraction=0.0)


def corpus_of(*seeds, n_notes=8):
    return [random_score(seed, n_notes=n_notes) for seed in seeds]


def renamed(score, name):
    return dataclasses.replace(score, name=name)


# --- validation split ---


def test_is_validation_name_crc_rule():
    # [DERIVED] the split rule is crc32(name) % 100 < round(fraction * 100).
    for name in ("synth-0", "gamma", "beta", "fixture_a"):
        bucket = zlib.crc32(name.encode()) % 100
        for fraction in (0.0, 0.1, 0.25, 0.8):
            assert is_validation_name(name, fraction) == (
                bucket < int(round(fraction * 100))), (name, fraction)


def test_is_validation_name_edges():
    assert not is_validation_name("anything", 0.0)
    # "gamma" hashes to bucket 9 -> validation at 10% but not at 5%.
    assert is_validation_name("gamma", 0.1)
    assert not is_validation_name("gamma", 0.05)


def test_split_corpus_partitions():
    corpus = [renamed(s, n) for s, n in zip(
        corpus_of(0, 1, 2), ("gamma", "beta", "delta"))]
    train_set, val_set = split_corpus(corpus, 0.1)
    assert [s.name for s in val_set] == ["gamma"]
    assert [s.name for s in train_set] == ["beta", "delta"]
    assert len(train_set) + len(val_set) == 3


# --- input validation ---


def test_train_rejects_empty_corpus():
    with pytest.raises(EmptyCorpus):
        train([], SMALL, FAST)


def test_train_rejects_duplicate_names():
    score = random_score(0, n_notes=6)
    with pytest.raises(EmptyCorpus, match="duplicate"):
        train([score, score], SMALL, FAST)


def test_train_rejects_unlabeled_piece():
    bad = dataclasses.replace(random_score(0, n_notes=6), labels=None)
    with pytest.raises(EmptyCorpus, match="labels"):
        train([renamed(bad, "beta")], SMALL, FAST)


def test_train_rejects_all_validation_split():
    score = renamed(random_score(0, n_notes=6), "gamma")  # bucket 9
    config = dataclasses.replace(FAST, val_fraction=0.1)
    with pytest.raises(EmptyCorpus, match="validation"):
        train([score], SMALL, config)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0).validate()
    TrainConfig().validate()


# --- training behavior ---


def test_train_loss_decreases():
    params, result = train(corpus_of(0, 1), SMALL, FAST)
    assert result.epochs_run == FAST.epochs
    assert len(result.train_losses) == FAST.epochs
    assert result.train_losses[-1] < result.train_losses[0]
    assert all(math.isfinite(x) for x in result.train_losses)


def test_train_selects_on_train_loss_without_validation():
    _, result = train(corpus_of(0, 1), SMALL, FAST)
    assert result.val_losses == result.train_losses
    assert result.best_loss == min(result.train_losses)
    assert result.best_epoch == result.train_losses.index(result.best_loss)


def test_train_uses_validation_split_when_present():
    corpus = [renamed(s, n) for s, n in zip(
        corpus_of(0, 1), ("gamma", "beta"))]  # gamma -> val at 10%
    config = dataclasses.replace(FAST, val_fraction=0.1)
    _, result = train(corpus, SMALL, config)
    assert result.val_losses != result.train_losses
    assert result.best_loss == min(result.val_losses)


def test_train_deterministic_given_seed(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    _, res_a = train(corpus_of(0, 1), SMALL, FAST, out_dir=out_a)
    _, res_b = train(corpus_of(0, 1), SMALL, FAST, out_dir=out_b)
    assert res_a.train_losses == res_b.train_losses
    assert (out_a / "best.ckpt").read_bytes() == (
        out_b / "best.ckpt").read_bytes()
    assert (out_a / "metrics.csv").read_text() == (
        out_b / "metrics.csv").read_text()


def test_train_seed_changes_result():
    _, res_a = train(corpus_of(0, 1), SMALL, FAST)
    _, res_b = train(corpus_of(0, 1), SMALL,
                     dataclasses.replace(FAST, seed=1))
    assert res_a.train_losses != res_b.train_losses


def test_train_artifacts(tmp_path):
    params, result = train(corpus_of(0, 1), SMALL, FAST, out_dir=tmp_path)
    assert result.checkpoint_path == tmp_path / "best.ckpt"
    tensors, meta = load_checkpoint(result.checkpoint_path)
    assert meta["model"] == SMALL.shape_dict()
    assert meta["seed"] == FAST.seed
    assert meta["epoch"] == result.best_epoch
    assert meta["selection_loss"] == pytest.approx(result.best_loss)
    assert set(tensors) == set(params)

    with (tmp_path / "metrics.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "val_loss", "is_best"]
    assert len(rows) == 1 + FAST.epochs
    assert [int(r[0]) for r in rows[1:]] == list(range(FAST.epochs))
    assert [float(r[1]) for r in rows[1:]] == pytest.approx(
        result.train_losses)
    assert sum(int(r[3]) for r in rows[1:]) >= 1
    best_rows = [r for r in rows[1:] if int(r[3]) == 1]
    assert float(best_rows[-1][2]) == pytest.approx(result.best_loss)


def test_checkpoint_holds_best_epoch_not_last(tmp_path):
    """The saved tensors must snapshot the best epoch, not the final state."""
    # Train long enough that the last epoch usually isn't the best on a
    # one-piece validation split; then verify against a fresh re-run.
    corpus = [renamed(s, n) for s, n in zip(
        corpus_of(0, 1), ("gamma", "beta"))]
    config = dataclasses.replace(FAST, epochs=6, val_fraction=0.1)
    params, result = train(corpus, SMALL, config, out_dir=tmp_path)
    tensors, meta = load_checkpoint(tmp_path / "best.ckpt")
    if result.best_epoch == config.epochs - 1:
        for name, p in params.items():
            assert np.array_equal(tensors[name], p.data)
    else:
        assert any(not np.array_equal(tensors[name], p.data)
                   for name, p in params.items())


def test_train_resume_from_params():
    params, first = train(corpus_of(0, 1), SMALL, FAST)
    resumed_params, resumed = train(
        corpus_of(0, 1), SMALL, dataclasses.replace(FAST, epochs=1),
        params=params)
    # The provided parameters are trained in place, not re-initialized, so
    # the resumed run starts below the cold start's first epoch.
    assert resumed_params is params
    assert resumed.train_losses[0] < first.train_losses[0]
    assert resumed.train_losses[0] < first.train_losses[-2]


def test_train_clip_norm_smoke():
    config = dataclasses.replace(FAST, clip_norm=1.0, epochs=2)
    _, result = train(corpus_of(0, 1), SMALL, config)
    assert all(math.isfinite(x) for x in result.train_losses)


def test_train_counts_excluded_voice_edges():
    # Strict same-bar candidates on a cross-bar corpus exclude some truth
    # edges from the loss; the count accumulates over every piece visit.
    strict = dataclasses.replace(SMALL, strict_same_bar_candidates=True)
    corpus = corpus_of(0, 1, n_notes=12)
    _, one_epoch = train(corpus, strict,
                         dataclasses.replace(FAST, epochs=1))
    _, three_epochs = train(corpus, strict,
                            dataclasses.replace(FAST, epochs=3))
    assert one_epoch.excluded_voice_edges > 0
    assert three_epochs.excluded_voice_edges == (
        3 * one_epoch.excluded_voice_edges)


def test_train_builds_each_graphs_plans_once(monkeypatch):
    # Every plan (the convolution's gather and scatter, each pair head's
    # scatter) is built in the first epoch and reused by the later ones.
    corpus = corpus_of(0, 1, n_notes=12)
    heads_with_pairs = sum(
        len(pairs) > 0 for g in (graph_for(s, SMALL) for s in corpus)
        for pairs in (g.candidate_pairs, g.chord_pairs))
    built = {}
    rank_steps = ad._rank_steps

    class CountedPairPlan(graph.PairPlan):
        def __init__(self, u, w):
            built["pair plans"] += 1
            super().__init__(u, w)

    def counted_rank_steps(idx, take):
        built["rank steps"] += 1
        return rank_steps(idx, take)
    monkeypatch.setattr(graph, "PairPlan", CountedPairPlan)
    monkeypatch.setattr(ad, "_rank_steps", counted_rank_steps)
    for epochs in (1, 3):
        built.update({"pair plans": 0, "rank steps": 0})
        train(corpus, SMALL, dataclasses.replace(FAST, epochs=epochs))
        assert built == {"pair plans": 2 * len(corpus),
                         "rank steps": 2 * len(corpus) + heads_with_pairs}


def test_train_full_candidates_exclude_nothing():
    _, result = train(corpus_of(0, 1, n_notes=12), SMALL, FAST)
    assert result.excluded_voice_edges == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_raises_on_divergence():
    config = dataclasses.replace(FAST, lr=1e200, epochs=2)
    with pytest.raises((DivergedLoss, NonFiniteLoss)):
        train(corpus_of(0, 1), SMALL, config)


# --- evaluate_corpus ---


def test_evaluate_corpus_empty():
    params, _ = train(corpus_of(0), SMALL,
                      dataclasses.replace(FAST, epochs=1))
    with pytest.raises(EmptyCorpus):
        evaluate_corpus([], params, SMALL)


def test_evaluate_corpus_report():
    corpus = corpus_of(0, 1)
    params, _ = train(corpus, SMALL, dataclasses.replace(FAST, epochs=1))
    report = evaluate_corpus(corpus, params, SMALL)
    assert isinstance(report, EvalReport)
    assert [p.name for p in report.pieces] == [s.name for s in corpus]
    assert report.pieces[0].note_count == len(corpus[0].notes)
    for head in ("staff", "spelling", "joint_duration"):
        assert 0.0 <= report.micro_accuracy(head) <= 1.0


def test_evaluate_corpus_threshold_override():
    corpus = corpus_of(0)
    params, _ = train(corpus, SMALL, dataclasses.replace(FAST, epochs=1))
    strict = evaluate_corpus(corpus, params, SMALL, threshold=0.999)
    loose = evaluate_corpus(corpus, params, SMALL, threshold=1e-6)
    # A near-one threshold predicts almost no pairs; a near-zero threshold
    # predicts every candidate.
    assert strict.pieces[0].voice_counts[1] <= loose.pieces[0].voice_counts[1]
    n_candidates = loose.pieces[0].voice_counts[1]
    assert n_candidates > 0
