from pathlib import Path

import numpy as np
import pytest

from paramint.intervals import Interval, IntervalVector
from paramint.solvers import spectral_radius
from paramint.systems import make_system
from paramint.truss import Element, TrussModel, six_bar_truss

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_rank_one_system(rng, n=3, K=2, rho_target=0.5, rhs_params=0,
                           loose_rhs=False):
    """Well-conditioned family whose matrix coefficients are rank-one outer
    products; radii scaled so the midpoint-family condition hits rho_target.
    `rhs_params` extra parameters appear in the right-hand side only.  By
    default a matrix parameter's right-hand side component lies in the
    range of its coefficient matrix (so solutions stay p-only);
    `loose_rhs` draws it freely, so it is a column of F beside the
    parameter's g-column."""
    A0 = n * np.eye(n) + rng.uniform(-1.0, 1.0, (n, n))
    total = K + rhs_params
    A = np.zeros((total + 1, n, n))
    a = np.zeros((total + 1, n))
    A[0] = A0
    a[0] = rng.uniform(-2.0, 2.0, n)
    for k in range(K):
        A[k + 1] = np.outer(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))
        if loose_rhs:
            a[k + 1] = rng.uniform(-1.0, 1.0, n)
        else:
            a[k + 1] = A[k + 1] @ rng.uniform(-1.0, 1.0, n)
    for k in range(K, total):
        a[k + 1] = rng.uniform(-1.0, 1.0, n)

    C = np.linalg.inv(A0)
    delta_unit = sum(np.abs(C @ A[k + 1]) for k in range(K)) if K else np.zeros((n, n))
    rho_unit = spectral_radius(delta_unit) if K else 0.0
    scale = rho_target / rho_unit if rho_unit > 0 else 1.0
    rad = rng.uniform(0.5, 1.0, total) * scale
    mid = rng.uniform(-1.0, 1.0, total)
    box = IntervalVector.from_bounds(mid - rad, mid + rad)
    return make_system(A, a, box)


def out_of_range_family():
    # parameter 0's right-hand side (0, 1) lies outside the range of
    # e1 e1^T; parameter 1 is right-hand-side only, parameter 2 rank one
    # with its right-hand side in range
    A = np.stack([np.array([[4.0, 1.0], [1.0, 3.0]]), np.diag([1.0, 0.0]),
                  np.zeros((2, 2)), np.diag([0.0, 1.0])])
    a = np.array([[1.0, 2.0], [0.0, 1.0], [0.5, 1.0], [0.0, 2.0]])
    return make_system(A, a, IntervalVector.from_pairs([[-0.25, 0.25], [0, 2],
                                                        [-0.1, 0.1]]))


def shared_area_truss():
    # the six-bar truss with both diagonals sized by one area parameter:
    # its coefficient has rank two
    base = six_bar_truss()
    E = base.elements[0].modulus
    return TrussModel(nodes=base.nodes,
                      elements=base.elements[:4] + (Element(3, 1, E, "A"),
                                                    Element(0, 2, E, "A")),
                      supports=base.supports, loads=base.loads,
                      params=(("A", Interval(1.0e-3, 1.1e-3)),
                              ("Q", Interval(20.0, 21.0))))


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
