import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusconj import intlat
from torusconj.errors import LatticeError

from conftest import lehmer_matrix, LEHMER_COEFFS


# ------------------------------------------------------------------- HNF

def test_hnf_oracle_2x2():
    # frozen oracle: worked by hand with row operations
    H, U = intlat.hermite_normal_form([[2, 1], [0, 1]])
    assert H == [[2, 0], [0, 1]]
    assert intlat.mat_mul(U, [[2, 1], [0, 1]]) == H
    assert intlat.det_int(U) in (1, -1)


@given(st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_hnf_properties(d, data):
    M = [[data.draw(st.integers(-9, 9)) for _ in range(d)] for _ in range(d)]
    H, U = intlat.hermite_normal_form(M)
    assert intlat.mat_mul(U, M) == H
    assert intlat.det_int(U) in (1, -1)
    # upper triangular with positive pivots, entries above reduced
    for i in range(d):
        piv = next((j for j in range(d) if H[i][j] != 0), None)
        for j in range(d):
            if piv is None or j < piv:
                assert H[i][j] == 0
        if piv is not None:
            assert H[i][piv] > 0
            for r in range(i):
                assert 0 <= H[r][piv] < H[i][piv]


def test_det_int_matches_numpy():
    rng = random.Random(1)
    for _ in range(50):
        d = rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        assert intlat.det_int(M) == round(np.linalg.det(np.array(M, dtype=float)))


def test_mat_inv_unimodular():
    S = [[1, -1], [0, 1]]
    assert intlat.mat_mul(S, intlat.mat_inv_unimodular(S)) == intlat.identity(2)
    for M in ([[2, 0], [0, 1]], [[1, 2], [3, 4]], [[2, 1, 0], [1, 1, 0], [0, 0, 3]]):
        with pytest.raises(LatticeError, match="not unimodular"):
            intlat.mat_inv_unimodular(M)
    for M in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]):
        with pytest.raises(LatticeError, match="singular"):
            intlat.mat_inv_unimodular(M)


@given(st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_mat_inv_unimodular_elementary_products(d, data):
    # any product of elementary matrices (row additions, swaps, sign flips)
    S = intlat.identity(d)
    for _ in range(data.draw(st.integers(0, 8))):
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        E = intlat.identity(d)
        op = data.draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            E[i][j] = data.draw(st.integers(-3, 3))
        elif op == "swap":
            E[i], E[j] = E[j], E[i]
        elif op == "negate":
            E[i][i] = -1
        S = intlat.mat_mul(E, S)
    Sinv = intlat.mat_inv_unimodular(S)
    assert intlat.mat_mul(S, Sinv) == intlat.identity(d)
    assert intlat.mat_mul(Sinv, S) == intlat.identity(d)


# ------------------------------------------------------------ integer solve

@given(st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_integer_matches_brute_force(n, m, data):
    A = [[data.draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        A[-1] = [2 * x for x in A[0]]               # a singular system
    if data.draw(st.booleans()):
        b = intlat.mat_vec(A, [data.draw(st.integers(-2, 2)) for _ in range(m)])
    else:
        b = [data.draw(st.integers(-4, 4)) for _ in range(n)]
    x = intlat._solve_integer(A, b)
    if x is not None:
        assert intlat.mat_vec(A, x) == b
    box = range(-4, 5)
    found = any(intlat.mat_vec(A, list(c)) == b for c in itertools.product(box, repeat=m))
    if found:
        assert x is not None


# ------------------------------------------------------------- eigen data

def test_char_poly_oracle():
    # det(xI - M) for M=[[2,1],[0,1]] is x^2 - 3x + 2
    assert intlat.char_poly([[2, 1], [0, 1]]) == [1, -3, 2]
    # cat map: x^2 - 3x + 1
    assert intlat.char_poly([[2, 1], [1, 1]]) == [1, -3, 1]


def test_char_poly_matches_numpy():
    rng = random.Random(2)
    for _ in range(20):
        d = rng.randint(2, 5)
        M = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        got = intlat.char_poly(M)
        want = np.poly(np.array(M, dtype=float))
        assert np.allclose(got, want, atol=1e-6)


def test_integer_eigenvalues():
    assert intlat.integer_eigenvalues([[2, 1], [0, 1]]) == [1, 2]
    assert intlat.integer_eigenvalues([[2, 1], [1, 1]]) == []   # irrational pair
    assert intlat.integer_eigenvalues(lehmer_matrix()) == []


def test_lehmer_char_poly():
    # companion matrix reproduces its defining polynomial exactly
    got = intlat.char_poly(lehmer_matrix())
    assert got == list(reversed(LEHMER_COEFFS))


def test_left_eigenvector_and_invariant_line():
    M = [[2, 1], [0, 1]]
    v = intlat.left_eigenvector_integer(M, 2)
    assert [sum(v[i] * M[i][j] for i in range(2)) for j in range(2)] == [2 * x for x in v]
    line = intlat.derive_invariant_line(M, 2)
    assert intlat.mat_vec(M, line) == [2 * x for x in line]


# ---------------------------------------------------------------- tilings

def test_tiling_oracle_simple():
    tp = intlat.tiling_parallelotope([1, 0])
    cols = tp.columns()
    assert sum(a * b for a, b in zip(tp.v, cols[0])) == 0
    assert sum(a * b for a, b in zip(tp.v, cols[1])) == 1
    assert intlat.det_int([list(r) for r in tp.W]) in (1, -1)


@given(st.integers(2, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_tiling_properties(d, data):
    v = [data.draw(st.integers(-20, 20)) for _ in range(d)]
    if all(x == 0 for x in v):
        v[0] = 1
    tp = intlat.tiling_parallelotope(v)
    cols = tp.columns()
    for c in cols[:-1]:
        assert sum(a * b for a, b in zip(tp.v, c)) == 0
    assert sum(a * b for a, b in zip(tp.v, cols[-1])) == 1
    assert intlat.det_int([list(r) for r in tp.W]) in (1, -1)


def test_tiling_deterministic():
    a = intlat.tiling_parallelotope([3, -5, 7])
    b = intlat.tiling_parallelotope([3, -5, 7])
    assert a == b


def test_primitive():
    assert intlat.primitive([4, 6]) == [2, 3]
    assert intlat.primitive([-2, 0]) == [-1, 0]


# --------------------------------------------------------- block structure

def test_block_triangularize_oracle():
    # invariant line (1,0) of [[2,1],[0,1]]; Sylvester decoupling solves
    # 2x - x = -1, i.e. x = -1, so the conjugated form is diag(2,1)
    bf = intlat.block_triangularize([[2, 1], [0, 1]], [[1, 0]])
    assert bf.k == 1
    assert bf.A == ((2,),)
    assert bf.decoupled
    assert bf.M_conj == ((2, 0), (0, 1))
    S = bf.S_list()
    Sinv = intlat.mat_inv_unimodular(S)
    assert intlat.mat_mul(Sinv, intlat.mat_mul([[2, 1], [0, 1]], S)) == \
        [list(r) for r in bf.M_conj]


def test_block_triangularize_full():
    bf = intlat.block_triangularize([[2, 1], [1, 1]], intlat.identity(2))
    assert bf.k == 2
    assert bf.classification == "hyperbolic"
    assert bf.decoupled


def test_block_triangularize_rejects_non_invariant():
    with pytest.raises(LatticeError):
        intlat.block_triangularize([[2, 1], [0, 1]], [[0, 1]])


def test_block_triangularize_rejects_non_summand():
    # the sublattice spanned by (2,0) is M-invariant but not a direct summand
    with pytest.raises(LatticeError, match="direct summand"):
        intlat.block_triangularize([[2, 0], [0, 3]], [[2, 0]])


def test_classification():
    assert intlat.classify_block([[2, 0], [0, 3]]) == "expanding"
    assert intlat.classify_block([[2, 1], [1, 1]]) == "hyperbolic"
    assert intlat.classify_block([[1, 0], [0, 2]]) == "neither"


def test_3d_block_decoupled():
    # blockdiag([[3,1],[1,3]], [1]) is already decoupled with k = 2
    M = [[3, 1, 0], [1, 3, 0], [0, 0, 1]]
    bf = intlat.block_triangularize(M, [[1, 0, 0], [0, 1, 0]])
    assert bf.k == 2 and bf.decoupled
    assert bf.classification == "expanding"


def test_coupled_form_reported():
    # [[2,3],[3,2]] (eigenvalues 5, -1): line (1,1); 5x - (-1)x = -3 has no
    # integer solution (6x = -3), so the form stays coupled
    bf = intlat.block_triangularize([[2, 3], [3, 2]], [[1, 1]])
    assert bf.k == 1 and bf.A == ((5,),)
    assert not bf.decoupled


def test_shared_eigenvalue_decouples():
    # eigenvalues 3, 3, 0: A = [3] and D share the eigenvalue 3, so the
    # Sylvester operator is singular, yet an integer X exists
    M = [[3, 1, 1], [0, 1, -2], [0, -1, 2]]
    line = intlat.derive_invariant_line(M, 3)
    assert line == [1, 0, 0]
    bf = intlat.block_triangularize(M, [line])
    assert bf.k == 1 and bf.A == ((3,),) and bf.decoupled
    S = bf.S_list()
    assert S == [[1, 0, -1], [0, 1, 0], [0, 0, 1]]
    assert intlat.det_int(S) in (1, -1)
    Mc = intlat.mat_mul(intlat.mat_inv_unimodular(S), intlat.mat_mul(M, S))
    assert Mc == [list(r) for r in bf.M_conj]
    assert Mc[0][1:] == [0, 0] and Mc[1][0] == Mc[2][0] == 0
