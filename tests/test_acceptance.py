"""Release acceptance criteria, one test per criterion.

Every test finishes through ``conclude``, which prints a single
``PASS: ...`` / ``FAIL: ...`` line with the measured quantities and the
tolerance it was held to, and registers the line with
``conftest.ACCEPTANCE_RESULTS`` so that the terminal summary repeats all
of them after the run (pytest captures ordinary stdout).

The criteria are property-based: they check gradients against finite
differences, training against a memorizable fixture corpus, the
assignment solver against brute-force permutation search, postprocessing
against the engraving invariants, the MusicXML writer against a
parse-export-parse fixpoint, the metrics against straight-line counting,
and the whole pipeline against bit-level determinism.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from conftest import ACCEPTANCE_RESULTS, FIXTURE_NAMES, fixture_path, parse_fixture
from test_metrics import brute_metrics

from notesetter.autodiff import reset_tape
from notesetter.checkpoint import load_checkpoint, restore_params
from notesetter.decoders import HEAD_WIDTHS, NODE_HEADS, zero_output_layers
from notesetter.graph import build_graph, coverage_report
from notesetter.hungarian import assignment_cost, hungarian
from notesetter.metrics import ACCURACY_HEADS, evaluate_bundle
from notesetter.model import (ModelConfig, graph_for, init_params,
                              loss_for_score, predict_bundle)
from notesetter.musicxml import (export_musicxml, parse_musicxml,
                                 validate_subset)
from notesetter.notes import (CLEF_F, CLEF_G, DEFAULT_SPELLING_BY_PC,
                              LabelSet, STEM_DOWN, STEM_UP, make_score,
                              spelling_of)
from notesetter.optim import grad_check
from notesetter.pipeline import engrave_dump, write_predictions
from notesetter.postprocess import engrave, engrave_from_labels
from notesetter.rng import Rng
from notesetter.synth import random_bundle, random_score
from notesetter.trainer import TrainConfig, evaluate_corpus, train


def conclude(ok: bool, criterion: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {criterion} - {detail}"
    print(line)
    ACCEPTANCE_RESULTS.append(line)
    assert ok, line


# --- criterion 1: gradient correctness ---


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    # Seed 6 gives the densest candidate sets among small seeds (21 voice
    # and 4 chord candidates for 10 notes), so every head carries loss.
    score = random_score(6, n_notes=10)
    config = ModelConfig(hidden_size=16)  # full depth, GRU, dropout 0.5
    graph = graph_for(score, config)
    params = init_params(config, Rng(0))
    probe = loss_for_score(score, graph, params, config, rng=Rng(1),
                           train=True)
    assert set(probe.per_head) == set(HEAD_WIDTHS)  # all eleven heads active

    def loss_fn():
        # A fresh Rng(1) per call keeps the dropout masks identical across
        # the finite-difference evaluations, as grad_check requires.
        reset_tape()
        return loss_for_score(score, graph, params, config, rng=Rng(1),
                              train=True).total

    report = grad_check(loss_fn, params, entries_per_param=3, rng=Rng(2))
    elapsed = time.perf_counter() - t0
    ok = report.max_error < 1e-4 and elapsed < 60.0
    conclude(ok, "criterion 1 (gradient correctness)",
             f"max relative error {report.max_error:.3e} < 1e-4 against "
             f"central differences over {report.entries_checked} entries "
             f"of the full model, all 11 heads active, in {elapsed:.1f}s "
             f"(limit 60s)")


# --- criterion 2: overfit capability ---


def test_criterion_2_overfits_fixture_corpus():
    t0 = time.perf_counter()
    corpus = [parse_fixture(name).score
              for name in ("fixture_a", "fixture_b")]
    model = ModelConfig(hidden_size=32, dropout=0.0)
    schedule = TrainConfig(epochs=300, lr=1e-3, weight_decay=0.0, seed=0,
                           val_fraction=0.0)
    params, _result = train(corpus, model, schedule)
    report = evaluate_corpus(corpus, params, model)
    accuracies = {head: report.micro_accuracy(head) for head in NODE_HEADS}
    voice_f1 = report.micro_f1("voice")[2]
    elapsed = time.perf_counter() - t0
    worst = min(accuracies, key=accuracies.get)
    ok = (all(a >= 0.95 for a in accuracies.values())
          and voice_f1 >= 0.95 and elapsed < 600.0)
    conclude(ok, "criterion 2 (overfit capability)",
             f"300 epochs at hidden 32 on the two 8-bar two-voice pieces: "
             f"worst node-head training accuracy {accuracies[worst]:.3f} "
             f"({worst}) >= 0.95, training voice F1 {voice_f1:.3f} >= 0.95, "
             f"in {elapsed:.0f}s (limit 600s)")


# --- criterion 3: Hungarian oracle ---


def _brute_force_assignment_minimum(cost: np.ndarray) -> float:
    n = cost.shape[0]
    return min(float(sum(cost[i, p[i]] for i in range(n)))
               for p in itertools.permutations(range(n)))


def test_criterion_3_hungarian_matches_brute_force():
    # Entries are dyadic rationals (k/16) so every assignment sum is exact
    # in float64 and "equals exactly" is meaningful; the rectangular cases
    # are padded square with a constant dummy cost, as the voice assigner
    # pads melody/candidate mismatches.
    rng = Rng(3)
    failures = []
    squares = 0
    rectangles = 0
    for case in range(100):
        if case < 70:
            rows = cols = 1 + case % 6
            squares += 1
        else:
            rows = 1 + case % 6
            cols = 1 + (case * 3 + 1) % 6
            if rows == cols:
                cols = 1 + cols % 6
            rectangles += 1
        n = max(rows, cols)
        cost = np.full((n, n), 0.75)
        block = np.floor(rng.uniform(rows * cols) * 256.0) / 16.0
        cost[:rows, :cols] = block.reshape(rows, cols)
        col_of_row = hungarian(cost)
        solved = assignment_cost(cost, col_of_row)
        best = _brute_force_assignment_minimum(cost)
        if sorted(col_of_row) != list(range(n)) or solved != best:
            failures.append((case, solved, best))
    ok = not failures and squares + rectangles == 100
    conclude(ok, "criterion 3 (hungarian oracle)",
             f"assignment cost equals the brute-force permutation minimum "
             f"exactly (float ==) on {squares} square and {rectangles} "
             f"dummy-padded rectangular matrices up to 6x6")


# --- criterion 4: postprocessing validity ---


def test_criterion_4_postprocess_invariants():
    # triplet_octave is left out: its division-6 grid cannot carry the
    # arbitrary rests random predictions force, which is an UnfillableGap
    # by design, not an invariant violation.
    names = ("fixture_a", "fixture_b", "grace_clip", "single_whole")
    violations = []
    checked = 0
    for name in names:
        score = parse_fixture(name).score
        graph = build_graph(score)
        note_ids = list(range(len(score.notes)))
        for seed in range(50):
            checked += 1
            bundle = random_bundle(graph, seed)
            try:
                engraved = engrave(bundle, score)
                engraved.validate()  # bar sums, monophony, completeness
                placed = sorted(i for ev in engraved.events
                                for i in ev.note_ids)
                if placed != note_ids:
                    raise ValueError("note set changed")
            except ValueError as err:
                violations.append(f"{name}/seed{seed}: {err}")
    ok = checked == 200 and not violations
    conclude(ok, "criterion 4 (postprocessing validity)",
             f"{checked} randomized prediction bundles over 4 fixture "
             f"scores engraved with {len(violations)} invariant violations "
             f"(required: zero)")


# --- criterion 5: MusicXML round trip ---


def _spellings(specs):
    return tuple(spelling_of(*DEFAULT_SPELLING_BY_PC[midi % 12])
                 for _, _, midi in specs)


def _sample_scores():
    """Hand-written subset-conformant pieces beyond the fixture corpus."""
    samples = {}

    # A single-staff air: dotted quarter + eighth upbeat, then a held whole.
    specs = [(0, 3, 67), (3, 1, 69), (4, 2, 71), (6, 2, 72), (8, 8, 74)]
    labels = LabelSet(
        staff=(0,) * 5, spelling=_spellings(specs), key_fifths=(2,) * 5,
        stem=(STEM_UP,) * 5, octave_shift=(0,) * 5, clef=(CLEF_G,) * 5,
        note_type=(3, 4, 3, 3, 1), dots=(1, 0, 0, 0, 0), tuplet=(1,) * 5,
        voice_edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}),
        chord_edges=frozenset())
    samples["sample_air"] = make_score(
        2, [(0, 4, 4)], specs, labels=labels, name="sample_air")

    # A two-staff duet with a dotted-half chord in the upper voice.
    specs = [(0, 4, 48), (0, 2, 72), (2, 2, 74), (4, 4, 50), (4, 4, 76),
             (8, 8, 52), (8, 6, 74), (8, 6, 77), (14, 2, 76)]
    staff = (1, 0, 0, 1, 0, 1, 0, 0, 0)
    labels = LabelSet(
        staff=staff, spelling=_spellings(specs), key_fifths=(0,) * 9,
        stem=tuple(STEM_UP if s == 0 else STEM_DOWN for s in staff),
        octave_shift=(0,) * 9,
        clef=tuple(CLEF_G if s == 0 else CLEF_F for s in staff),
        note_type=(2, 3, 3, 2, 2, 1, 2, 2, 3),
        dots=(0, 0, 0, 0, 0, 0, 1, 1, 0), tuplet=(1,) * 9,
        voice_edges=frozenset({(1, 2), (2, 4), (4, 6), (6, 8),
                               (0, 3), (3, 5)}),
        chord_edges=frozenset({(6, 7)}))
    samples["sample_duet"] = make_score(
        2, [(0, 4, 4)], specs, labels=labels, name="sample_duet")

    # A late-entry lower voice: rests precede and follow its two notes.
    specs = [(0, 4, 76), (4, 2, 74), (6, 2, 71), (8, 8, 55), (8, 8, 72),
             (16, 8, 48), (16, 16, 71)]
    staff = (0, 0, 0, 1, 0, 1, 0)
    labels = LabelSet(
        staff=staff, spelling=_spellings(specs), key_fifths=(-1,) * 7,
        stem=tuple(STEM_UP if s == 0 else STEM_DOWN for s in staff),
        octave_shift=(0,) * 7,
        clef=tuple(CLEF_G if s == 0 else CLEF_F for s in staff),
        note_type=(3, 4, 4, 2, 2, 2, 1), dots=(0,) * 7, tuplet=(1,) * 7,
        voice_edges=frozenset({(0, 1), (1, 2), (2, 4), (4, 6), (3, 5)}),
        chord_edges=frozenset())
    samples["sample_entry"] = make_score(
        4, [(0, 4, 4)], specs, labels=labels, name="sample_entry")

    return samples


def _score_content(score):
    return (score.divisions_per_quarter, score.time_signatures, score.notes,
            score.labels)


def test_criterion_5_musicxml_round_trip():
    documents = {name: fixture_path(name).read_bytes()
                 for name in FIXTURE_NAMES}
    for name, score in _sample_scores().items():
        documents[name] = export_musicxml(engrave_from_labels(score))
    mismatches = []
    for name, data in documents.items():
        validate_subset(data)
        first = parse_musicxml(data)
        exported = export_musicxml(engrave_from_labels(first.score))
        validate_subset(exported)
        second = parse_musicxml(exported)
        again = export_musicxml(engrave_from_labels(second.score))
        if (_score_content(first.score) != _score_content(second.score)
                or again != exported):
            mismatches.append(name)
    ok = not mismatches and len(documents) == len(FIXTURE_NAMES) + 3
    conclude(ok, "criterion 5 (musicxml round trip)",
             f"parse-export-parse is a fixpoint and every exported document "
             f"passes subset validation on {len(documents)} files "
             f"(5 fixtures + 3 samples), re-export byte-identical")


# --- criterion 6: metric oracle ---


def test_criterion_6_metrics_match_brute_force():
    mismatches = []
    for seed in range(50):
        score = random_score(seed, n_notes=8 + seed % 7)
        bundle = random_bundle(build_graph(score), seed + 500)
        ours = evaluate_bundle(bundle, score, 0.5)
        acc, voice_f1, chord_f1 = brute_metrics(bundle, score)
        same = (all(ours.accuracy_counts[h] == acc[h]
                    for h in ACCURACY_HEADS)
                and all(ours.accuracy(h) == acc[h][0] / acc[h][1]
                        for h in ACCURACY_HEADS)
                and ours.voice_f1 == voice_f1
                and ours.chord_f1 == chord_f1)
        if not same:
            mismatches.append(seed)
    ok = not mismatches
    conclude(ok, "criterion 6 (metric oracle)",
             f"voice F1 and all {len(ACCURACY_HEADS)} accuracies equal the "
             f"independent brute-force counts exactly (float ==) on 50 "
             f"random scores")


# --- criterion 7: determinism ---


def test_criterion_7_bitwise_determinism(tmp_path):
    corpus = [parse_fixture(name).score
              for name in ("fixture_a", "fixture_b")]
    model = ModelConfig(hidden_size=16, dropout=0.0)
    schedule = TrainConfig(epochs=150, lr=1e-3, weight_decay=0.0, seed=42,
                           val_fraction=0.0)

    def full_run(out_dir):
        out_dir.mkdir()
        train(corpus, model, schedule, out_dir=out_dir)
        checkpoint = (out_dir / "best.ckpt").read_bytes()
        tensors, _meta = load_checkpoint(out_dir / "best.ckpt")
        params = init_params(model, Rng(schedule.seed))
        restore_params(params, tensors)
        dumps, sheets, from_dumps = {}, {}, {}
        for score in corpus:
            bundle = predict_bundle(score, params, model)
            dump = out_dir / f"{score.name}.pred"
            write_predictions(dump, score, bundle)
            dumps[score.name] = dump.read_bytes()
            sheets[score.name] = export_musicxml(engrave(bundle, score))
            from_dumps[score.name] = engrave_dump(dump)
        return checkpoint, dumps, sheets, from_dumps

    ckpt_a, dumps_a, sheets_a, from_dumps_a = full_run(tmp_path / "run_a")
    ckpt_b, dumps_b, sheets_b, from_dumps_b = full_run(tmp_path / "run_b")
    ok = (ckpt_a == ckpt_b and dumps_a == dumps_b and sheets_a == sheets_b
          and from_dumps_a == sheets_a and from_dumps_b == sheets_b
          and all(sheets_a.values()))
    conclude(ok, "criterion 7 (determinism)",
             f"two seed-42 train+predict runs: best.ckpt bit-identical "
             f"({len(ckpt_a)} bytes), prediction dumps bit-identical "
             f"({sum(map(len, dumps_a.values()))} bytes) and engraved "
             f"MusicXML byte-identical, in memory and from the dumps, for "
             f"both corpus pieces")


# --- criterion 8: candidate coverage ---


def test_criterion_8_candidate_coverage():
    full_ok = True
    strict_reported = True
    totals = []
    for name in FIXTURE_NAMES:
        score = parse_fixture(name).score
        full = coverage_report(score, cross_bar=True)
        full_ok = (full_ok and full.fraction == 1.0
                   and full.covered == full.total_truth_edges
                   and not full.missing)
        totals.append(full.total_truth_edges)
        # [DERIVED] independent oracle: same-bar candidates can never
        # contain a truth edge whose endpoints lie in different bars, and
        # (per the full-coverage check above) contain every other one.
        bar = {note.id: note.bar_index for note in score.notes}
        cross_bar_truth = {(u, w) for u, w in score.labels.voice_edges
                           if bar[u] != bar[w]}
        strict = coverage_report(score, cross_bar=False)
        strict_reported = (strict_reported
                           and set(strict.missing) == cross_bar_truth
                           and strict.covered
                           == strict.total_truth_edges - len(cross_bar_truth)
                           and "missing" in str(strict))

    # The shortfall must reach training, not vanish: the loss reports how
    # many gold edges the strict candidate set excluded (16 on fixture_a).
    score = parse_fixture("fixture_a").score
    strict_cfg = ModelConfig(hidden_size=8, num_layers=1, dropout=0.0,
                             strict_same_bar_candidates=True)
    params = init_params(strict_cfg, Rng(0))
    out = loss_for_score(score, graph_for(score, strict_cfg), params,
                         strict_cfg, train=False)
    bar = {note.id: note.bar_index for note in score.notes}
    expected_excluded = sum(1 for u, w in score.labels.voice_edges
                            if bar[u] != bar[w])
    loss_reports = out.excluded_voice_edges == expected_excluded == 16

    ok = full_ok and strict_reported and loss_reports
    conclude(ok, "criterion 8 (candidate coverage)",
             f"cross-bar candidates cover 100% of the "
             f"{sum(totals)} ground-truth voice edges on all 5 fixtures; "
             f"strict same-bar mode reports its shortfall (fixture_a: "
             f"{expected_excluded} excluded edges surfaced by the loss)")


# --- criterion 9: uniform-loss sanity ---


def test_criterion_9_uniform_loss_at_zero_output():
    score = parse_fixture("fixture_a").score
    config = ModelConfig(hidden_size=16)
    params = init_params(config, Rng(0))
    zero_output_layers(params)
    out = loss_for_score(score, graph_for(score, config), params, config,
                         train=False)
    expected = {head: math.log(width) if width > 1 else math.log(2.0)
                for head, width in HEAD_WIDTHS.items()}
    deviations = {head: abs(float(out.per_head[head]) - expected[head])
                  for head in expected}
    worst = max(deviations, key=deviations.get)
    ok = deviations[worst] < 1e-9
    conclude(ok, "criterion 9 (uniform-loss sanity)",
             f"with zero output layers every K-class head's loss equals "
             f"ln K within 1e-9 (spelling ln 35 = {math.log(35):.4f}, "
             f"pair heads ln 2; worst deviation {deviations[worst]:.1e} "
             f"on {worst})")
