"""The numerics the learners share: Adadelta updates over named arrays, the
one logistic function, and the ordered scatter-add into a table's rows.

Adadelta is Zeiler's rule with no global learning-rate factor: running
averages of squared gradients and squared updates set the per-coordinate step
size. A step runs on blocks of about BLOCK_ELEMENTS elements along each
parameter's first axis, so it holds no parameter-sized temporary; every
element gets the bytes the whole-array expression gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BLOCK_ELEMENTS = 1 << 16


@dataclass
class AdadeltaState:
    """Accumulators mirroring every named parameter array."""

    sq_grad: dict[str, np.ndarray] = field(default_factory=dict)
    sq_update: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdadeltaState":
        return cls(
            sq_grad={k: np.zeros_like(v) for k, v in params.items()},
            sq_update={k: np.zeros_like(v) for k, v in params.items()},
        )


def row_blocks(array: np.ndarray) -> list[slice]:
    """Slices of array's first axis, each holding about BLOCK_ELEMENTS
    elements and at least one row; none for an array with no rows."""
    row_size = max(1, int(np.prod(array.shape[1:])))
    step = max(1, BLOCK_ELEMENTS // row_size)
    return [slice(lo, lo + step) for lo in range(0, array.shape[0], step)]


def adadelta_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdadeltaState,
    rho: float,
    eps: float,
):
    """One in-place adadelta update of every (at least 1-D) parameter array.

    E[g2] <- rho E[g2] + (1-rho) g2
    delta  = -(sqrt(E[dx2] + eps) / sqrt(E[g2] + eps)) * g
    E[dx2] <- rho E[dx2] + (1-rho) delta2
    """
    for name, whole in params.items():
        for rows in row_blocks(whole):
            param = whole[rows]
            g = grads[name][rows]
            eg2 = state.sq_grad[name][rows]
            edx2 = state.sq_update[name][rows]
            eg2 *= rho
            eg2 += (1.0 - rho) * g * g
            delta = -np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g
            edx2 *= rho
            edx2 += (1.0 - rho) * delta * delta
            param += delta


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)); an exp that overflows gives inf, and so the exact 0.0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def scatter_add(table: np.ndarray, rows: np.ndarray, deltas: np.ndarray):
    """np.add.at(table, rows, deltas), bit for bit but faster, through the flat
    view of a C-contiguous table."""
    dim = table.shape[1]
    flat_index = rows.reshape(-1, 1) * dim + np.arange(dim)
    np.add.at(table.reshape(-1), flat_index.reshape(-1), deltas.reshape(-1))
