"""Full model: graph encoder plus prediction heads, with one loss per piece."""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .autodiff import Value, no_grad
from .decoders import (LossResult, Predictions, PredictionBundle, decode_all,
                       init_decoder_params, total_loss)
from .encoder import encode, init_encoder_params
from .graph import ScoreGraph, build_graph
from .notes import Score
from .rng import Rng

# keys that change parameter shapes; the config hash covers exactly these
MODEL_SHAPE_KEYS = ("hidden_size", "num_layers", "aggregation", "use_gru",
                    "gru_on_initial_features")


@dataclasses.dataclass
class ModelConfig:
    """The encoder's and the score graph's settings."""

    hidden_size: int = 256
    num_layers: int = 3
    dropout: float = 0.5
    aggregation: str = "sum"          # "sum" (paper) or "mean" (ablation)
    use_gru: bool = True
    gru_on_initial_features: bool = False
    strict_same_bar_candidates: bool = False

    @property
    def cross_bar(self) -> bool:
        return not self.strict_same_bar_candidates

    def validate(self) -> None:
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.aggregation not in ("sum", "mean"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")

    def shape_dict(self) -> dict:
        return {k: getattr(self, k) for k in MODEL_SHAPE_KEYS}


def init_params(config: ModelConfig, rng: Rng) -> dict[str, Value]:
    """All trainable parameters, in a fixed creation order."""
    config.validate()
    params = init_encoder_params(config, rng)
    params.update(init_decoder_params(config.hidden_size, rng))
    return params


def forward(graph: ScoreGraph, params: dict[str, Value], config: ModelConfig,
            rng: Optional[Rng] = None, train: bool = False) -> Predictions:
    embeddings = encode(graph, params, config, rng=rng, train=train)
    return decode_all(embeddings, graph, params)


def graph_for(score: Score, config: ModelConfig) -> ScoreGraph:
    return build_graph(score, cross_bar=config.cross_bar)


def loss_for_score(score: Score, graph: ScoreGraph, params: dict[str, Value],
                   config: ModelConfig, rng: Optional[Rng] = None,
                   train: bool = True) -> LossResult:
    if score.labels is None:
        raise ValueError(f"score {score.name!r} carries no labels")
    preds = forward(graph, params, config, rng=rng, train=train)
    return total_loss(preds, score.labels, len(score.onset))


def predict_bundle(score: Score, params: dict[str, Value],
                   config: ModelConfig) -> PredictionBundle:
    """Deterministic inference: eval mode (no dropout), numpy bundle out.

    The forward runs in float32, on a float32 copy of every parameter; the
    bundle casts the logits back to float64 before the softmax and sigmoid,
    so its arrays are float64, as the dump format stores them. The caller's
    ``params`` are not changed.
    """
    graph = graph_for(score, config)
    with no_grad():
        params32 = {name: Value(p.data.astype(np.float32, copy=False))
                    for name, p in params.items()}
        preds = forward(graph, params32, config, rng=None, train=False)
    return preds.bundle()
