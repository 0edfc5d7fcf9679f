"""Random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None`` and normalizes it through
:func:`ensure_rng`.  This keeps experiments reproducible bit-for-bit while
letting callers share a generator across components when they want coupled
randomness.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RandomState", "ensure_rng"]

#: The accepted type for ``random_state`` arguments throughout the library.
RandomState = Union[None, int, np.random.Generator]


def ensure_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for a fresh non-deterministic generator, an ``int`` seed for a
        deterministic one, or an existing :class:`numpy.random.Generator`
        which is returned unchanged.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)) and not isinstance(random_state, bool):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int seed, or a numpy.random.Generator, "
        f"got {type(random_state).__name__}"
    )

