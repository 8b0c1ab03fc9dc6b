"""Training loop: one optimizer step per piece, name-stable validation split.

Checkpoint selection tracks the best validation loss; when the validation
split is empty, the epoch's mean training loss is used instead. All shuffling
and dropout draw from a single seeded stream, so a given (corpus, config,
seed) triple reproduces the same checkpoint byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import zlib
from pathlib import Path
from typing import Optional

from .autodiff import Value, backward, no_grad, reset_tape
from .checkpoint import save_checkpoint
from .metrics import EvalReport, evaluate_bundle
from .model import (ModelConfig, graph_for, init_params, loss_for_score,
                    predict_bundle, targets_for)
from .optim import Adam, clip_grad_norm
from .postprocess import DEFAULT_THRESHOLD
from .rng import Rng


class EmptyCorpus(ValueError):
    pass


class DivergedLoss(RuntimeError):
    pass


@dataclasses.dataclass
class TrainConfig:
    epochs: int = 50
    lr: float = 1e-3
    weight_decay: float = 5e-4
    seed: int = 0
    val_fraction: float = 0.1
    clip_norm: Optional[float] = None  # e.g. 5.0 to enable

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr {self.lr} must be finite and positive")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay {self.weight_decay} must be "
                             "finite and non-negative")
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm)
                                               and self.clip_norm > 0.0):
            raise ValueError(f"clip_norm {self.clip_norm} must be none or "
                             "finite and positive")


def is_validation_name(name: str, fraction: float) -> bool:
    """Stable, seed-independent split on the piece name."""
    bucket = zlib.crc32(name.encode("utf-8")) % 100
    return bucket < int(round(fraction * 100))


def split_corpus(corpus, fraction: float):
    train = [s for s in corpus if not is_validation_name(s.name, fraction)]
    val = [s for s in corpus if is_validation_name(s.name, fraction)]
    return train, val


@dataclasses.dataclass
class TrainResult:
    epochs_run: int
    best_epoch: int
    best_loss: float
    train_losses: list
    val_losses: list
    checkpoint_path: Optional[Path]
    excluded_voice_edges: int


def _mean_eval_loss(scores, pieces, params, config: ModelConfig) -> float:
    total = 0.0
    with no_grad():
        for score in scores:
            reset_tape()
            graph, targets = pieces[score.name]
            result = loss_for_score(score, graph, params, config,
                                    targets=targets)
            total += result.total.item()
    reset_tape()
    return total / len(scores)


def train(corpus, model_config: ModelConfig, train_config: TrainConfig,
          out_dir: Optional[Path] = None,
          params: Optional[dict[str, Value]] = None) -> tuple[dict, TrainResult]:
    """Train on a corpus; returns (params, result) and writes artifacts.

    Artifacts under ``out_dir`` (when given): ``best.ckpt`` holding the
    best-validation parameters and ``metrics.csv`` with one row per epoch.
    """
    model_config.validate()
    train_config.validate()
    if not corpus:
        raise EmptyCorpus("corpus contains no pieces")
    names = [s.name for s in corpus]
    if len(set(names)) != len(names):
        raise EmptyCorpus(f"duplicate piece names in corpus: {sorted(names)}")
    train_set, val_set = split_corpus(corpus, train_config.val_fraction)
    if not train_set:
        raise EmptyCorpus("every piece landed in the validation split")
    for score in corpus:
        if score.labels is None:
            raise EmptyCorpus(f"piece {score.name!r} carries no labels")

    rng = Rng(train_config.seed)
    if params is None:
        params = init_params(model_config, rng)
    optimizer = Adam(params, lr=train_config.lr,
                     weight_decay=train_config.weight_decay)
    # each piece's graph and loss targets, built once for every epoch
    pieces = {}
    for score in corpus:
        graph = graph_for(score, model_config)
        pieces[score.name] = graph, targets_for(score, graph)

    best_loss = math.inf
    best_epoch = -1
    train_losses: list[float] = []
    val_losses: list[float] = []
    excluded_total = 0
    ckpt_path = None
    csv_file = csv_writer = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        ckpt_path = out_dir / "best.ckpt"
        csv_file = (out_dir / "metrics.csv").open("w", newline="")
        csv_writer = csv.writer(csv_file)
        csv_writer.writerow(["epoch", "train_loss", "val_loss", "is_best"])

    try:
        for epoch in range(train_config.epochs):
            order = list(range(len(train_set)))
            rng.shuffle(order)
            epoch_loss = 0.0
            for idx in order:
                score = train_set[idx]
                optimizer.zero_grad()
                reset_tape()
                graph, targets = pieces[score.name]
                result = loss_for_score(score, graph, params, model_config,
                                        rng=rng, targets=targets)
                loss_value = result.total.item()
                if not math.isfinite(loss_value):
                    raise DivergedLoss(
                        f"epoch {epoch}, piece {score.name!r}: "
                        f"loss {loss_value}")
                excluded_total += result.excluded_voice_edges
                backward(result.total)
                if train_config.clip_norm is not None:
                    clip_grad_norm(params, train_config.clip_norm)
                optimizer.step()
                epoch_loss += loss_value
            reset_tape()
            train_loss = epoch_loss / len(train_set)
            if val_set:
                select_loss = _mean_eval_loss(val_set, pieces, params,
                                              model_config)
            else:
                select_loss = train_loss
            train_losses.append(train_loss)
            val_losses.append(select_loss)
            is_best = select_loss < best_loss
            if is_best:
                best_loss = select_loss
                best_epoch = epoch
                if ckpt_path is not None:
                    save_checkpoint(
                        ckpt_path,
                        {name: p.data for name, p in params.items()},
                        meta={"model": model_config.shape_dict(),
                              "epoch": epoch, "selection_loss": best_loss,
                              "seed": train_config.seed})
            if csv_writer is not None:
                csv_writer.writerow(
                    [epoch, f"{train_loss:.10f}", f"{select_loss:.10f}",
                     int(is_best)])
                csv_file.flush()
    finally:
        if csv_file is not None:
            csv_file.close()

    result = TrainResult(
        epochs_run=train_config.epochs, best_epoch=best_epoch,
        best_loss=best_loss, train_losses=train_losses,
        val_losses=val_losses, checkpoint_path=ckpt_path,
        excluded_voice_edges=excluded_total)
    return params, result


def evaluate_corpus(corpus, params, config: ModelConfig,
                    threshold: float = DEFAULT_THRESHOLD) -> EvalReport:
    if not corpus:
        raise EmptyCorpus("nothing to evaluate")
    pieces = []
    for score in corpus:
        bundle = predict_bundle(score, params, config)
        pieces.append(evaluate_bundle(bundle, score, threshold))
    return EvalReport(pieces=pieces)
