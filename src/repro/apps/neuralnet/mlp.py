"""A small MLP (tanh hidden layer, softmax output), fully vectorized.

The model is a KV dict of parameter arrays — the representation PIC
requires — with helpers for forward passes, cross-entropy gradients, and
validation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.rng import SeedLike, as_generator

W1, B1, W2, B2 = "W1", "b1", "W2", "b2"
PARAM_KEYS = (W1, B1, W2, B2)


@dataclass(frozen=True)
class MLP:
    """Network shape: input → tanh hidden → softmax over classes."""

    input_dim: int
    hidden_dim: int
    num_classes: int

    def __post_init__(self) -> None:
        if min(self.input_dim, self.hidden_dim, self.num_classes) < 1:
            raise ValueError("all layer sizes must be >= 1")


def init_params(shape: MLP, seed: SeedLike = 0) -> dict[str, np.ndarray]:
    """Xavier-style initialisation."""
    rng = as_generator(seed)
    s1 = (2.0 / (shape.input_dim + shape.hidden_dim)) ** 0.5
    s2 = (2.0 / (shape.hidden_dim + shape.num_classes)) ** 0.5
    return {
        W1: rng.normal(0.0, s1, size=(shape.input_dim, shape.hidden_dim)),
        B1: np.zeros(shape.hidden_dim),
        W2: rng.normal(0.0, s2, size=(shape.hidden_dim, shape.num_classes)),
        B2: np.zeros(shape.num_classes),
    }


def forward(params: dict[str, np.ndarray], X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (hidden activations, class probabilities)."""
    H = np.tanh(X @ params[W1] + params[B1])
    logits = H @ params[W2] + params[B2]
    logits -= logits.max(axis=1, keepdims=True)  # numerical stability
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    return H, probs


def loss_and_gradients(
    params: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy loss and its gradients (one backprop pass)."""
    n = len(X)
    if n == 0:
        raise ValueError("cannot compute gradients on an empty batch")
    H, probs = forward(params, X)
    loss = float(-np.log(probs[np.arange(n), y] + 1e-12).mean())
    dlogits = probs
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    grads = {
        W2: H.T @ dlogits,
        B2: dlogits.sum(axis=0),
    }
    dH = (dlogits @ params[W2].T) * (1.0 - H * H)
    grads[W1] = X.T @ dH
    grads[B1] = dH.sum(axis=0)
    return loss, grads


def misclassification(
    params: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray
) -> float:
    """Fraction of samples classified incorrectly (the Fig 12a metric)."""
    _H, probs = forward(params, X)
    return float(np.mean(np.argmax(probs, axis=1) != y))
