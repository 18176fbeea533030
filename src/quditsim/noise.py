"""Single-qudit Pauli noise channels.

A channel (kind, p) leaves the qudit alone with probability 1-p and
otherwise applies a uniformly random nonidentity error from its support:

    'f' (flip):          X^a, a in 1..d-1
    'p' (phase):         Z^b, b in 1..d-1
    'd' (depolarizing):  X^a Z^b, (a, b) != (0, 0)

Both samplers take the events that fire from geometric gaps
(frames.fired_positions) and draw their errors only, one integer each, with
sample_error_batch.  sample_error, one float and one integer per event
whether or not it fires, is the draw of a per-shot run (frames._run), and
stays public API as that oracle's draw.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

NOISE_KINDS = ("f", "p", "d")


def _components(kind: str, idx, d: int):
    # idx is uniform on [0, d^2-1); (d-1) divides d^2-1 so idx % (d-1)
    # is uniform too.
    if kind == "f":
        return 1 + idx % (d - 1), idx * 0
    if kind == "p":
        return idx * 0, 1 + idx % (d - 1)
    if kind == "d":
        return (idx + 1) // d, (idx + 1) % d
    raise ShapeError(f"unknown noise kind {kind!r}")


def _check_channel(kind: str, prob: float) -> None:
    if kind not in NOISE_KINDS:
        raise ShapeError(f"unknown noise kind {kind!r}")
    if not 0.0 <= prob <= 1.0:
        raise ShapeError(f"noise probability must lie in [0, 1], got {prob!r}")


def sample_error(kind: str, prob: float, d: int, rng: np.random.Generator):
    """One (a, b) error draw; (0, 0) when the channel does not fire."""
    _check_channel(kind, prob)
    u = rng.random()
    idx = int(rng.integers(0, d * d - 1))
    if u >= prob:
        return 0, 0
    a, b = _components(kind, idx, d)
    return int(a), int(b)


def sample_error_batch(kind: str, d: int, rng: np.random.Generator, size: int):
    """(a, b) arrays of shape (size,) of errors that fire, uniform over the
    channel's support."""
    return _components(kind, rng.integers(0, d * d - 1, size=size,
                                          dtype=np.int64), d)


def error_distribution(kind: str, prob: float, d: int) -> dict:
    """Exact probability of each (a, b) error the channel can produce."""
    _check_channel(kind, prob)
    if kind == "f":
        support = [(a, 0) for a in range(1, d)]
    elif kind == "p":
        support = [(0, b) for b in range(1, d)]
    else:
        support = [(a, b) for a in range(d) for b in range(d) if (a, b) != (0, 0)]
    out = {(0, 0): 1.0 - prob}
    for pair in support:
        out[pair] = prob / len(support)
    return out
