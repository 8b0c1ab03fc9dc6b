"""Spans and counters recorded from outside the program.

``Tracer.install`` rebinds the module attribute each caller in ``notesetter``
looks up (``model.encode``, ``postprocess.hungarian``, ...) to a wrapper that
records a span, so no program file is edited and the untraced run binds
nothing. A span is (name, start, end, parent, piece, phase); spans stay in
memory until ``write``. A layer's self time is its spans' duration minus the
part covered by their child spans; the benchmark's own root spans (set-up and
one per item) keep whatever no layer claims, reported as ``other``.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
from time import perf_counter

from notesetter import autodiff, checkpoint, model, optim, pipeline
from notesetter import postprocess, trainer

# (object whose attribute the caller looks up, attribute, layer name)
LAYERS = (
    (pipeline, "read_score_file", "musicxml.read"),
    (pipeline, "export_musicxml", "musicxml.export"),
    (model, "build_graph", "graph.build"),
    (model, "encode", "encoder.encode"),
    (model, "decode_all", "decoders.decode"),
    (model, "total_loss", "decoders.loss"),
    (trainer, "backward", "autodiff.backward"),
    (optim.Adam, "step", "optim.step"),
    (trainer, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (pipeline, "write_predictions", "pipeline.write_predictions"),
    (pipeline, "read_predictions", "pipeline.read_predictions"),
    (postprocess, "pool_chords", "postprocess.pool"),
    (postprocess, "assign_voices", "postprocess.assign"),
    (postprocess, "number_voices", "postprocess.number"),
    (postprocess, "unpool_and_finalize", "postprocess.finalize"),
    (postprocess, "hungarian", "hungarian"),
)
LAYER_NAMES = tuple(name for _, _, name in LAYERS) + ("other",)


def _max_overlap(intervals) -> int:
    """Most intervals [start, end) sounding at one instant."""
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    best = now = 0
    for _, step in events:     # ends sort before starts at the same time
        now += step
        best = max(best, now)
    return best


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        self.phase = "setup"
        self._stack: list[int] = []
        self._piece = None
        self._piece_notes = 0
        self._restore: list = []

    # --- recording ---

    @contextlib.contextmanager
    def span(self, name: str, piece=None):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        if piece is not None:
            self._piece = piece
        piece = self._piece
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, piece, self.phase)

    def _wrap(self, owner, attr: str, name: str, before=None, after=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        hooks = {
            "graph.build": dict(after=self._on_graph),
            "autodiff.backward": dict(before=self._on_backward),
            "hungarian": dict(before=self._on_hungarian),
            "postprocess.number": dict(after=self._on_number),
        }
        for owner, attr, name in LAYERS:
            self._wrap(owner, attr, name, **hooks.get(name, {}))
        # training names its piece only through loss_for_score
        original = trainer.loss_for_score

        @functools.wraps(original)
        def named(score, *args, **kwargs):
            self._piece, self._piece_notes = score.name, len(score.notes)
            return original(score, *args, **kwargs)

        trainer.loss_for_score = named
        self._restore.append((trainer, "loss_for_score", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # --- counters, keyed by phase ---

    def _count(self, key: str, value=1) -> None:
        self.counters[f"{self.phase}.{key}"] += value

    def _on_graph(self, args, graph) -> None:
        self._count("graph.notes", graph.node_count)
        self._count("graph.candidates", len(graph.candidate_pairs))

    def _on_backward(self, args) -> None:
        self._count("tape.nodes", autodiff.tape_size())
        self._count("tape.notes", self._piece_notes)

    def _on_hungarian(self, args) -> None:
        self._count("hungarian.calls")
        key = f"{self.phase}.hungarian.max_n"
        self.counters[key] = max(self.counters[key], len(args[0]))

    def _on_number(self, args, numbered) -> None:
        pools = args[1]
        for staff in (0, 1):
            used = sum(1 for s in numbered.values() if s.staff == staff)
            if used:
                self._count("voices.numbers", used)
                self._count("voices.max_sounding", _max_overlap(
                    [(p.onset_div, p.offset_div) for p in pools
                     if p.staff == staff]))

    # --- results ---

    def self_times(self, phases=("setup", "items")) -> dict[str, float]:
        """Self seconds per layer over the given phases; roots are ``other``."""
        child_time = collections.defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for sid, (name, start, end, parent, _, phase) in enumerate(self.spans):
            if phase in phases:
                key = "other" if parent is None else name
                out[key] += end - start - child_time[sid]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, piece, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "piece": piece, "phase": phase}) + "\n")
