"""Bundled demo systems.

Three small interval parametric families with published reference
enclosures (the tests check them against the published data), plus the
secondary-variable map used with the third one.
These double as the regression fixtures under fixtures/ and are exposed
through ``paramint examples``.
"""

from __future__ import annotations

import numpy as np

from .intervals import IntervalVector
from .systems import ParamLinearSystem, make_system


def example1_system() -> ParamLinearSystem:
    """2x2 family: one parameter in the matrix and right-hand side, one in
    the right-hand side only."""
    A0 = [[-1.0, -1.0], [-1.0, -1.0]]
    A1 = np.zeros((2, 2))
    A2 = [[0.5, -0.5], [-1.0, 1.0]]
    a0 = [2.0, 0.0]
    a1 = [0.0, 3.0]
    a2 = [1.0, -2.0]
    box = IntervalVector.from_pairs([[-0.25, 1.0], [0.5, 1.5]])
    return make_system([A0, A1, A2], [a0, a1, a2], box)


def example2_system() -> ParamLinearSystem:
    """Example 1 with a third, rank-one matrix parameter added."""
    A0 = [[-1.0, -1.0], [-1.0, -1.0]]
    A1 = np.zeros((2, 2))
    A2 = [[0.5, -0.5], [-1.0, 1.0]]
    A3 = [[-2.0, 0.0], [0.0, 0.0]]
    a0 = [-1.0, 3.0]
    a1 = [3.0, 2.0]
    a2 = [1.0, -2.0]
    a3 = [0.0, 0.0]
    box = IntervalVector.from_pairs([[-0.25, 1.0], [0.5, 1.5],
                                     [0.2, 2.0 / 3.0]])
    return make_system([A0, A1, A2, A3], [a0, a1, a2, a3], box)


def example3_system() -> ParamLinearSystem:
    """3x3 family whose first parameter has a rank-two coefficient matrix."""
    A0 = [[0.5, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, -2.0]]
    A1 = [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    A2 = [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]
    a0 = [0.0, 2.0, -1.0]
    a1 = [0.0, -1.0, 1.0]
    a2 = [1.0, -1.0, 0.0]
    box = IntervalVector.from_pairs([[2.0 / 3.0, 4.0 / 3.0], [0.5, 1.5]])
    return make_system([A0, A1, A2], [a0, a1, a2], box)


def example3_secondary_matrix() -> np.ndarray:
    """Linear secondary map z = B x exercised on the example3 solutions."""
    return np.array([[1.0, 2.0, 3.0],
                     [1.5, 1.0, 2.0],
                     [0.5, 0.5, 1.0]])


SYSTEM_BUILDERS = {
    "example1": example1_system,
    "example2": example2_system,
    "example3": example3_system,
}
