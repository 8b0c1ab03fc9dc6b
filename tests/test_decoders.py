"""Oracle tests for the output heads, prediction bundles, and the summed loss."""

from __future__ import annotations

import math

import numpy as np
import pytest

from notesetter import autodiff as ad
from notesetter.autodiff import Value
from notesetter.decoders import (HEAD_WIDTHS, NODE_HEADS, PAIR_HEADS,
                                 POOLED_HEADS, LabelOutOfRange, Predictions,
                                 decode_all,
                                 init_decoder_params, labels_to_classes,
                                 total_loss, zero_output_layers)
from notesetter.graph import build_graph
from notesetter.notes import LabelSet, make_score
from notesetter.optim import NonFiniteLoss
from notesetter.rng import Rng


def test_head_vocabulary():
    assert NODE_HEADS == ("staff", "spelling", "key", "stem", "octave_shift",
                          "clef", "note_type", "dots", "tuplet")
    assert PAIR_HEADS == ("voice", "chord")
    assert HEAD_WIDTHS["spelling"] == 35
    assert HEAD_WIDTHS["key"] == 15
    assert HEAD_WIDTHS["voice"] == 1
    assert set(POOLED_HEADS) == {"note_type", "dots", "tuplet", "stem"}


def test_init_names_and_shapes():
    params = init_decoder_params(8, Rng(0))
    for head in NODE_HEADS + PAIR_HEADS:
        fan_in = 16 if head in PAIR_HEADS else 8
        assert params[f"dec.{head}.W1"].shape == (fan_in, 8)
        assert params[f"dec.{head}.b1"].shape == (1, 8)
        assert params[f"dec.{head}.W2"].shape == (8, HEAD_WIDTHS[head])
        assert params[f"dec.{head}.b2"].shape == (1, HEAD_WIDTHS[head])
    assert len(params) == 4 * len(NODE_HEADS + PAIR_HEADS)


def test_zero_output_layers():
    params = init_decoder_params(4, Rng(1))
    w1_before = np.array(params["dec.key.W1"].data)
    zero_output_layers(params)
    for head in NODE_HEADS + PAIR_HEADS:
        assert np.all(params[f"dec.{head}.W2"].data == 0.0)
        assert np.all(params[f"dec.{head}.b2"].data == 0.0)
    np.testing.assert_array_equal(params["dec.key.W1"].data, w1_before)


def small_graph():
    score = make_score(2, [(0, 4, 4)],
                       [(0, 4, 60), (0, 4, 64), (4, 4, 62), (8, 8, 59)])
    return build_graph(score)


def test_pair_head_first_layer_is_one_tape_node():
    graph = small_graph()
    params = init_decoder_params(6, Rng(2))
    emb = Value(Rng(3).normal(graph.node_count, 6).reshape(graph.node_count, 6))
    ad.reset_tape()
    decode_all(emb, graph, params)
    tape = list(ad._TAPE)
    for head in PAIR_HEADS:
        w1 = params[f"dec.{head}.W1"]
        readers = [node for node in tape
                   if any(p is w1 for p in node._parents)]
        assert len(readers) == 1, head
        hidden = readers[0]
        assert hidden._parents[0] is emb
        # the output layer's matmul reads the hidden layer directly
        assert [node for node in tape if node._parents[:1] == (hidden,)][0] \
            ._parents[1] is params[f"dec.{head}.W2"]
    # node heads: matmul, add, relu, matmul, add; pair heads: one node, then
    # the output matmul and add
    assert len(tape) == 5 * len(NODE_HEADS) + 3 * len(PAIR_HEADS)
    ad.reset_tape()


def test_decode_all_shapes_and_mlp_oracle():
    graph = small_graph()
    params = init_decoder_params(6, Rng(2))
    emb = Value(Rng(3).normal(graph.node_count, 6).reshape(graph.node_count, 6))
    preds = decode_all(emb, graph, params)
    for head in NODE_HEADS:
        assert preds.note_logits[head].shape == (4, HEAD_WIDTHS[head])
    assert preds.voice_pairs.dtype == np.int64
    np.testing.assert_array_equal(preds.voice_pairs, graph.candidate_pairs)
    assert preds.voice_logits.shape == (len(preds.voice_pairs), 1)
    assert preds.chord_pairs.tolist() == [[0, 1]]
    assert preds.chord_logits.shape == (1, 1)

    # [DERIVED: duplicate-formula oracle] 2-layer MLP, relu hidden.
    x = emb.data
    w1 = params["dec.clef.W1"].data
    b1 = params["dec.clef.b1"].data
    w2 = params["dec.clef.W2"].data
    b2 = params["dec.clef.b2"].data
    expected = np.maximum(x @ w1 + b1, 0.0) @ w2 + b2
    np.testing.assert_allclose(preds.note_logits["clef"].data, expected,
                               atol=1e-12)
    # Pair heads read [h_u; h_w].
    u, w = preds.chord_pairs[0]
    xp = np.concatenate([x[u], x[w]]).reshape(1, -1)
    pw1 = params["dec.chord.W1"].data
    pb1 = params["dec.chord.b1"].data
    pw2 = params["dec.chord.W2"].data
    pb2 = params["dec.chord.b2"].data
    np.testing.assert_allclose(preds.chord_logits.data,
                               np.maximum(xp @ pw1 + pb1, 0) @ pw2 + pb2,
                               atol=1e-12)


def test_single_note_has_no_pair_logits():
    graph = build_graph(make_score(2, [(0, 4, 4)], [(0, 4, 60)]))
    params = init_decoder_params(4, Rng(0))
    preds = decode_all(Value(np.ones((1, 4))), graph, params)
    assert preds.voice_logits is None
    assert preds.chord_logits is None
    bundle = preds.bundle()
    bundle.validate()
    assert bundle.note_count == 1
    assert len(bundle.voice_probs) == 0


def hand_predictions(n=2):
    note_logits = {h: Value(np.zeros((n, HEAD_WIDTHS[h]))) for h in NODE_HEADS}
    return Predictions(note_logits=note_logits,
                       voice_pairs=((0, 1),),
                       voice_logits=Value(np.zeros((1, 1))),
                       chord_pairs=((0, 1),),
                       chord_logits=Value(np.zeros((1, 1))))


def test_bundle_probabilities_oracle():
    preds = hand_predictions()
    preds.note_logits["staff"] = Value(np.array([[0.0, 1.0], [2.0, -1.0]]))
    preds.voice_logits = Value(np.array([[0.5]]))
    preds.chord_logits = Value(np.array([[-2.0]]))
    bundle = preds.bundle()
    # [DERIVED] P(lower) = softmax(row)[1] = 1/(1+e^-(l1-l0)).
    np.testing.assert_allclose(
        bundle.staff_probs,
        [1 / (1 + math.exp(-1.0)), 1 / (1 + math.exp(3.0))], atol=1e-12)
    np.testing.assert_allclose(bundle.voice_probs,
                               [1 / (1 + math.exp(-0.5))], atol=1e-12)
    np.testing.assert_allclose(bundle.chord_probs,
                               [1 / (1 + math.exp(2.0))], atol=1e-12)
    assert bundle.staff().dtype == np.int64
    np.testing.assert_array_equal(bundle.staff(), [1, 0])
    bundle.validate()
    # [DERIVED] the rule is P(lower) >= 0.5, so exactly 0.5 is the lower staff
    bundle.staff_probs = np.array([0.5, np.nextafter(0.5, 0.0)])
    np.testing.assert_array_equal(bundle.staff(), [1, 0])


def test_bundle_argmax_and_validate_errors():
    preds = hand_predictions()
    preds.note_logits["clef"] = Value(np.array([[0.0, 3.0, 1.0],
                                                [5.0, 0.0, 0.0]]))
    bundle = preds.bundle()
    assert bundle.argmax("clef").tolist() == [1, 0]
    bundle.voice_probs = np.array([1.0])  # out of open interval
    with pytest.raises(ValueError):
        bundle.validate()
    bundle.voice_probs = np.array([0.5, 0.5])  # count mismatch
    with pytest.raises(ValueError):
        bundle.validate()
    bundle.voice_probs = np.array([0.5])
    bundle.validate()
    for value in (np.nan, np.inf, -np.inf):
        bundle.note_logits["clef"][1, 2] = value
        with pytest.raises(ValueError, match="clef logits are not all finite"):
            bundle.validate()


def full_labels(n, voice_edges=(), chord_edges=(), **overrides):
    base = dict(staff=(0,) * n, spelling=(12,) * n, key_fifths=(0,) * n,
                stem=(0,) * n, octave_shift=(0,) * n, clef=(0,) * n,
                note_type=(3,) * n, dots=(0,) * n, tuplet=(1,) * n)
    base.update(overrides)
    return LabelSet(voice_edges=frozenset(voice_edges),
                    chord_edges=frozenset(chord_edges), **base)


def test_labels_to_classes_oracle():
    labels = full_labels(2, key_fifths=(-7, 7), tuplet=(3, 5),
                         spelling=(0, 34))
    classes = labels_to_classes(labels, 2)
    assert classes["key"].tolist() == [0, 14]
    assert classes["tuplet"].tolist() == [1, 2]
    assert classes["spelling"].tolist() == [0, 34]
    assert classes["staff"].dtype == np.int64


def test_labels_to_classes_errors():
    with pytest.raises(LabelOutOfRange):
        labels_to_classes(full_labels(2, key_fifths=(0, 8)), 2)
    with pytest.raises(LabelOutOfRange):
        labels_to_classes(full_labels(2, tuplet=(1, 2)), 2)
    with pytest.raises(LabelOutOfRange):
        labels_to_classes(full_labels(2, spelling=(0, 35)), 2)
    with pytest.raises(LabelOutOfRange):
        labels_to_classes(full_labels(2, stem=(0, 3)), 2)
    with pytest.raises(LabelOutOfRange):
        labels_to_classes(full_labels(1), 2)


def test_total_loss_uniform_oracle():
    # [DERIVED] zero logits: CE = ln K per node head, BCE = ln 2 per pair head.
    preds = hand_predictions()
    labels = full_labels(2, voice_edges={(0, 1)}, chord_edges={(0, 1)})
    result = total_loss(preds, labels, 2)
    for head in NODE_HEADS:
        assert result.per_head[head] == pytest.approx(
            math.log(HEAD_WIDTHS[head]), abs=1e-12), head
    assert result.per_head["voice"] == pytest.approx(math.log(2), abs=1e-12)
    assert result.per_head["chord"] == pytest.approx(math.log(2), abs=1e-12)
    expected_total = sum(math.log(HEAD_WIDTHS[h]) for h in NODE_HEADS) \
        + 2 * math.log(2)
    assert result.total.item() == pytest.approx(expected_total, abs=1e-10)
    assert result.excluded_voice_edges == 0


def test_total_loss_hand_values():
    # [DERIVED] one-note staff head with logits [m, 0], true class 0:
    # loss = log(1 + e^-m). Voice pair with logit z, target 1:
    # loss = softplus(z) - z = log(1 + e^-z).
    m, z = 2.0, 0.7
    note_logits = {h: Value(np.zeros((1, HEAD_WIDTHS[h]))) for h in NODE_HEADS}
    note_logits["staff"] = Value(np.array([[m, 0.0]]))
    preds = Predictions(note_logits=note_logits,
                        voice_pairs=((0, 0),),
                        voice_logits=Value(np.array([[z]])),
                        chord_pairs=(), chord_logits=None)
    labels = full_labels(1, voice_edges={(0, 0)})
    result = total_loss(preds, labels, 1)
    assert result.per_head["staff"] == pytest.approx(
        math.log(1 + math.exp(-m)), abs=1e-12)
    assert result.per_head["voice"] == pytest.approx(
        math.log(1 + math.exp(-z)), abs=1e-12)
    assert "chord" not in result.per_head
    assert result.total.item() == pytest.approx(
        sum(result.per_head.values()), abs=1e-10)


def test_total_loss_counts_excluded_voice_edges():
    preds = hand_predictions()
    # Truth edge (1, 0) is not a candidate; (0, 1) is.
    labels = full_labels(2, voice_edges={(0, 1), (1, 0)})
    result = total_loss(preds, labels, 2)
    assert result.excluded_voice_edges == 1
    # All-negative targets when no truth edge is a candidate.
    labels2 = full_labels(2, voice_edges={(1, 0)})
    result2 = total_loss(hand_predictions(), labels2, 2)
    assert result2.excluded_voice_edges == 1
    assert result2.per_head["voice"] == pytest.approx(math.log(2), abs=1e-12)


def test_total_loss_bce_negative_target_oracle():
    # [DERIVED] target 0, logit z: loss = softplus(z).
    z = 1.3
    preds = hand_predictions()
    preds.voice_logits = Value(np.array([[z]]))
    labels = full_labels(2)  # no voice edges
    result = total_loss(preds, labels, 2)
    assert result.per_head["voice"] == pytest.approx(
        math.log(1 + math.exp(z)), abs=1e-12)


def test_total_loss_chord_targets_from_labels():
    preds = hand_predictions()
    preds.chord_logits = Value(np.array([[4.0]]))
    with_chord = full_labels(2, chord_edges={(0, 1)})
    res_pos = total_loss(preds, with_chord, 2)
    # softplus(4) - 4 = log(1+e^-4)
    assert res_pos.per_head["chord"] == pytest.approx(
        math.log(1 + math.exp(-4.0)), abs=1e-12)
    ad.reset_tape()
    preds2 = hand_predictions()
    preds2.chord_logits = Value(np.array([[4.0]]))
    res_neg = total_loss(preds2, full_labels(2), 2)
    assert res_neg.per_head["chord"] == pytest.approx(
        math.log(1 + math.exp(4.0)), abs=1e-10)


def test_total_loss_nonfinite_raises():
    preds = hand_predictions()
    preds.note_logits["key"] = Value(np.full((2, 15), np.nan))
    with pytest.raises(NonFiniteLoss):
        total_loss(preds, full_labels(2, voice_edges={(0, 1)}), 2)


def test_total_loss_is_differentiable():
    ad.reset_tape()
    graph = small_graph()
    params = init_decoder_params(5, Rng(4))
    emb = Value(Rng(5).normal(4, 5).reshape(4, 5))
    preds = decode_all(emb, graph, params)
    labels = full_labels(4, voice_edges={(0, 2), (1, 2)},
                         chord_edges={(0, 1)})
    result = total_loss(preds, labels, 4)
    ad.backward(result.total)
    assert emb.grad is not None
    assert np.all(np.isfinite(emb.grad))
    assert params["dec.voice.W1"].grad is not None
    ad.reset_tape()
