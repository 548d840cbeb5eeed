import numpy as np
import pytest

from torusconj import parse_spec, block_triangularize, build_engine
from torusconj import dynamics, intlat

FIX_1D = "dim=1\nM=[[2]]\nG[1]=0.125*sin(2*pi*(z1))\n"

FIX_2D = ("dim=2\n"
          "M=[[2,1],[0,1]]\n"
          "G[1]=0.03*sin(2*pi*(z1+z2))\n"
          "G[2]=0.03*cos(2*pi*(z2))\n")

FIX_CAT = ("dim=2\n"
           "M=[[2,1],[1,1]]\n"
           "G[1]=0.02*sin(2*pi*(z1))\n"
           "G[2]=0.02*cos(2*pi*(z2))\n")

# |det M| = 2, eigenvalues 2 +- sqrt(2): hyperbolic, F is 2-to-1 on the torus
FIX_DET2 = ("dim=2\n"
            "M=[[3,1],[1,1]]\n"
            "G[1]=0.005*sin(2*pi*(z1))\n"
            "G[2]=0.005*cos(2*pi*(z2))\n")

# companion matrix of x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1,
# the smallest known Salem polynomial; irreducible, so no integer eigenvalue
LEHMER_COEFFS = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]  # c0..c10


def lehmer_matrix():
    a = LEHMER_COEFFS[:10]
    rows = [[0] * 10 for _ in range(10)]
    for i in range(9):
        rows[i][i + 1] = 1
    for j in range(10):
        rows[9][j] = -a[j]
    return rows


def lehmer_spec_text():
    M = "[" + ",".join("[" + ",".join(str(x) for x in r) + "]"
                       for r in lehmer_matrix()) + "]"
    return f"dim=10\nM={M}\n"


@pytest.fixture(scope="session")
def spec_1d():
    return parse_spec(FIX_1D)


@pytest.fixture(scope="session")
def engine_1d(spec_1d):
    bf = block_triangularize(spec_1d.M_list(), [[1]])
    return build_engine(spec_1d, bf, N=40)


@pytest.fixture(scope="session")
def spec_2d():
    return parse_spec(FIX_2D)


@pytest.fixture(scope="session")
def block_2d(spec_2d):
    line = intlat.derive_invariant_line(spec_2d.M_list(), 2)
    return block_triangularize(spec_2d.M_list(), [line])


@pytest.fixture(scope="session")
def spec_2d_S(spec_2d, block_2d):
    return dynamics.change_coordinates(spec_2d, block_2d.S_list())


@pytest.fixture(scope="session")
def engine_2d(spec_2d_S, block_2d):
    return build_engine(spec_2d_S, block_2d, N=40)


@pytest.fixture(scope="session")
def spec_cat():
    return parse_spec(FIX_CAT)


@pytest.fixture(scope="session")
def engine_cat(spec_cat):
    bf = block_triangularize(spec_cat.M_list(), intlat.identity(2))
    return build_engine(spec_cat, bf, N=12)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
