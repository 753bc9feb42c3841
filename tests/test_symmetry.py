"""analyze under unimodular changes of variable.

For M in GL_2(Z), psi(M x) = phi(x) has psi-hat(xi) = phi-hat(M^T xi): Omega
moves by M^-T, one to one, and each Gamma is composed with the linear map
M^T, which keeps the verdict and mu = tr E (E goes to its conjugate).  The
pairs marked xfail give a wrong verdict or mu today: the classifier searches
weights in one orthonormal basis and checks them coordinate by coordinate.
They pass once it searches the flag of kernels and oblique shears.
"""

import functools

import numpy as np
import pytest

import latconv
from latconv import examples
from latconv.lattice import LatticeFunction

NAMES = ["intro", "ex71", "ex72", "ex73", "ex74", "ex75:3,2", "ex75:2,3",
         "ex75:2,2", "srw:2", "phim:2,3", "phim:2,1"]
MATRICES = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1)),
            ((1, 2), (1, 3)), ((0, 1), (-1, 0)), ((1, -1), (1, 0)),
            ((2, 3), (1, 2))]
# the classifier reads the wrong weights here today (ROADMAP item 1)
KNOWN_WRONG = {
    ("intro", ((1, 1), (0, 1))), ("intro", ((2, 3), (1, 2))),
    *((name, M) for name in ("ex71", "ex75:3,2")
      for M in (((1, 1), (0, 1)), ((2, 1), (1, 1)), ((1, 2), (1, 3)),
                ((2, 3), (1, 2)))),
    *(("ex75:2,3", M) for M in (((1, 0), (1, 1)), ((2, 1), (1, 1)),
                                ((1, 2), (1, 3)), ((1, -1), (1, 0)),
                                ((2, 3), (1, 2)))),
}


@functools.lru_cache(maxsize=None)
def _summary(name, M=((1, 0), (0, 1))):
    f = examples.get(name)
    ana = latconv.analyze(LatticeFunction(2, f.points @ np.array(M).T, f.values))
    return len(ana.omega), ana.verdict, ana.mu_phi


def test_known_wrong_pairs_are_in_the_grid():
    assert len(KNOWN_WRONG) == 15
    assert all(name in NAMES and M in MATRICES for name, M in KNOWN_WRONG)


@pytest.mark.parametrize("M", MATRICES, ids=str)
@pytest.mark.parametrize("name", NAMES)
def test_analyze_is_invariant_under_unimodular_maps(name, M, request):
    if (name, M) in KNOWN_WRONG:
        request.applymarker(pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))
    assert abs(round(np.linalg.det(M))) == 1
    assert _summary(name, M) == _summary(name)
