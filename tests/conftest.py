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

# det M = -1 and no eigenvalue on the unit circle: a d = 3 hyperbolic map,
# whose inverse lift takes the LAPACK solve and three-column residuals
FIX_HYP3 = ("dim=3\n"
            "M=[[2,1,0],[1,1,1],[0,1,1]]\n"
            "G[1]=0.004*sin(2*pi*(z1+z3))\n"
            "G[2]=0.003*cos(2*pi*(z2))\n"
            "G[3]=0.002*sin(2*pi*(z1-z2))\n")

# |det M| = 2, eigenvalues 2 +- sqrt(2): hyperbolic, F is 2-to-1 on the torus
FIX_DET2 = ("dim=2\n"
            "M=[[3,1],[1,1]]\n"
            "G[1]=0.005*sin(2*pi*(z1))\n"
            "G[2]=0.005*cos(2*pi*(z2))\n")

# M has the eigenvalue 1 twice in one Jordan block, which float eigvals
# split by ~2e-8: neither expanding nor hyperbolic
FIX_DEFECTIVE = ("dim=2\n"
                 "M=[[3,2],[-2,-1]]\n"
                 "G[1]=0.01*sin(2*pi*(z1))\n")

# k = d = 2 expanding maps with one G: A = diag(2, 3), A conformal with
# eigenvalues 2 +- i, and a Jordan block of eigenvalue 2
_G_KD = "G[1]=0.02*sin(2*pi*(z1+z2))\nG[2]=0.02*cos(2*pi*(z1))\n"
FULL_BLOCK_MAPS = {"diag23": "dim=2\nM=[[2,0],[0,3]]\n" + _G_KD,
                   "conf": "dim=2\nM=[[2,-1],[1,2]]\n" + _G_KD,
                   "jordan": "dim=2\nM=[[2,1],[0,2]]\n" + _G_KD}

# k = 1 < d = 3 expanding: each fiber line has a 2-D y
FIX_D3K1 = ("dim=3\nM=[[2,1,0],[0,1,0],[0,0,1]]\nG[1]=0.01*sin(2*pi*(z1-2*z3))\n"
            "G[2]=0.02*cos(2*pi*(z2+z3))\n")

# k = 2 < d = 3 expanding, on the sublattice FIX_D3K2_SUB: both cone
# minima of every cell are pencils, q_exp of the 2-D core and q_inv
FIX_D3K2 = ("dim=3\nM=[[2,0,0],[0,3,0],[0,0,1]]\nG[1]=0.002*sin(2*pi*(z1-z3))\n"
            "G[3]=0.002*cos(2*pi*(z2))\n")
FIX_D3K2_SUB = [[1, 0, 0], [0, 1, 0]]

# A = [[0,-4],[1,0]], A^2 = -4 I: eigenvalues +-2i and ||A^-1||_2 = 1, so
# the norms ||A^-n|| are no geometric sequence and the series tail closes
# only at the second power
FIX_ROT = "dim=2\nM=[[0,-4],[1,0]]\nG[2]=0.02*cos(2*pi*(z2))\n"

# x^3 - x - 1: det M = 1, the unstable root 1.3247 (the plastic number) and
# a stable complex pair of modulus 0.869, whose real invariant plane is
# spanned by the real and imaginary parts of one eigenvector
FIX_PLASTIC = ("dim=3\nM=[[0,1,0],[0,0,1],[1,1,0]]\nG[1]=0.002*sin(2*pi*(z1+z3))\n"
               "G[2]=0.001*cos(2*pi*(z2))\nG[3]=0.001*sin(2*pi*(z1-z2))\n")

# a singular d = 3 map and a map with a negative eigenvalue
FIX_SING3 = "dim=3\nM=[[2,1,0],[0,2,0],[0,0,0]]\nG[1]=0.01*sin(2*pi*(z3))\n"
FIX_NEG = "dim=2\nM=[[-2,1],[0,3]]\nG[1]=0.01*cos(2*pi*(z2))\n"

# unimodular maps with entries near 1e8 and 3e6
FIX_BIG8 = "dim=2\nM=[[100000000,100000001],[99999999,100000000]]\n"
FIX_BIG6 = "dim=2\nM=[[3000001,3000000],[3000000,2999999]]\nG[1]=1e-9*sin(2*pi*(z1))\n"

# a frequency of 1e20, beyond 2^53: float64 would round it
FIX_BIGFREQ = "dim=1\nM=[[2]]\nG[1]=0.01*sin(2*pi*(100000000000000000000*z1))\n"

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
def engine_rot():
    spec = parse_spec(FIX_ROT)
    return build_engine(spec, block_triangularize(spec.M_list(), intlat.identity(2)), N=32)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
