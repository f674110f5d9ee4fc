"""Fixtures shared by the test modules."""
import os
from pathlib import Path

import numpy as np
import pytest

import stokesopt

# Relative PYTHONPATH entries name directories under the one pytest was
# started in; read it now, before any test changes the working directory.
_START_DIR = os.getcwd()


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the same stokesopt
    package as this session, whatever its working directory.

    The directory holding the imported package comes first on PYTHONPATH;
    the inherited entries follow it, made absolute.
    """
    package_root = str(Path(stokesopt.__file__).resolve().parents[1])
    inherited = [os.path.join(_START_DIR, entry) for entry in
                 os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    return dict(os.environ, PYTHONPATH=os.pathsep.join([package_root,
                                                        *inherited]))


@pytest.fixture
def mp_inverse():
    """Inverse of a float matrix computed in 40-digit mpmath arithmetic,
    rounded to floats: a reference for G^-1 that shares no factor with the
    package's kernel."""
    mpmath = pytest.importorskip("mpmath")

    def inverse(g):
        with mpmath.workdps(40):
            return np.array((mpmath.matrix(g.tolist()) ** -1).tolist(),
                            dtype=float)
    return inverse


@pytest.fixture
def lapack_inverse_factor():
    """L^-1 of a Gram by LAPACK potrf then trtri: a second implementation of
    the package's kernel, held to the same accuracy bounds."""
    from scipy.linalg.lapack import dpotrf, dtrtri

    def inverse_factor(g):
        c, info = dpotrf(g, lower=1, clean=1)
        assert info == 0
        linv, info = dtrtri(c, lower=1)
        assert info == 0
        return linv
    return inverse_factor
