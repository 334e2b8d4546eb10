"""Deterministic reductions.

Every sum goes through the fixed pairwise tree of
:func:`oldb2d.kernels.pairwise_sum` (leaf blocks of ``kernels.BLOCK``
elements, combined pairwise), so results never depend on the thread count
or on the memory layout of the input.
"""

from __future__ import annotations

import numpy as np

from . import kernels

#: unused by the reduction; kept because each perfbench run records it
CHUNK_BLOCKS = 64


def deterministic_sum(a: np.ndarray) -> float:
    """Pairwise sum of ``a`` flattened in C order; a perfbench trace target."""
    return kernels.pairwise_sum(np.ravel(a))
