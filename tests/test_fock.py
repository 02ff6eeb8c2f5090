import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse

from qgwb import coreps, fock, linalg, presets
from qgwb._rng import CounterRNG
from qgwb.errors import AxiomViolation, CompatibilityFailed, DepthExceeded


@pytest.fixture(scope="module")
def f28():
    return fock.TruncatedFock(2, 8)


def test_dimensions(f28):
    assert f28.total_dim == 511
    assert f28.degree_dims == [1, 2, 4, 8, 16, 32, 64, 128, 256]


def test_involution_invariants():
    f = fock.TruncatedFock(3, 2)
    assert np.linalg.norm(f.j_conj @ np.conj(f.j_conj) - np.eye(3)) < 1e-12
    jswap = np.array([[0.0, 1.0], [1.0, 0.0]])
    f2 = fock.TruncatedFock(2, 2, j_conj=jswap)
    assert np.array_equal(f2.apply_j(np.array([1.0, 2.0j])), np.array([-2.0j, 1.0]))
    with pytest.raises(AxiomViolation):
        fock.TruncatedFock(2, 2, j_conj=np.diag([1.0, 2.0]))


def test_cap():
    with pytest.raises(DepthExceeded):
        fock.TruncatedFock(4, 10)


def test_zero_operator(f28):
    assert np.linalg.norm(f28.s_operator(np.zeros(2)).toarray()) == 0.0


def test_catalan_moments(f28):
    zeta = np.array([1.0, 0.0])
    s = f28.s_operator(zeta)
    m = f28.vacuum_moments(s, [2, 4, 6, 8])
    assert abs(m[2] - 1.0) < 1e-12
    assert abs(m[4] - 2.0) < 1e-12
    assert abs(m[6] - 5.0) < 1e-12
    assert abs(m[8] - 14.0) < 1e-12


def test_pair_moments(f28):
    rng = CounterRNG(2)
    for _ in range(4):
        z, e = rng.complex_vector(2), rng.complex_vector(2)
        lhs = f28.vacuum().conj() @ f28.s_operator(z) @ f28.s_operator(e) @ f28.vacuum()
        assert abs(lhs - np.vdot(f28.apply_j(z), e)) < 1e-12


def test_selfadjoint_iff_t_fixed(f28):
    s = f28.s_operator(np.array([1.0, 0.0])).toarray()
    assert np.linalg.norm(s - s.conj().T) < 1e-12
    s2 = f28.s_operator(np.array([1.0j, 0.0])).toarray()
    assert np.linalg.norm(s2 - s2.conj().T) > 0.5


def test_moment_exactness_depth_stability():
    zeta = np.array([1.0, 0.0])
    vals = {}
    for depth in (8, 10):
        f = fock.TruncatedFock(2, depth)
        s = f.s_operator(zeta)
        vals[depth] = f.vacuum_moments(s, [2, 4, 6, 8])
    for k in (2, 4, 6, 8):
        assert abs(vals[8][k] - vals[10][k]) < 1e-14


def brute_force_pairings(word):
    """Sum over non-crossing pair partitions of <Omega, s_{i1}..s_{ik} Omega>
    for orthonormal J-real letters: each pair contributes delta of labels."""
    k = len(word)
    if k % 2:
        return 0.0

    def count(indices):
        if not indices:
            return 1.0
        first = indices[0]
        total = 0.0
        for pos in range(1, len(indices), 2):
            j = indices[pos]
            if word[first] == word[j]:
                total += count(indices[1:pos]) * count(indices[pos + 1:])
        return total

    return count(list(range(k)))


def test_free_independence_via_noncrossing_pairings(f28):
    s = [f28.s_operator(np.array([1.0, 0.0])),
         f28.s_operator(np.array([0.0, 1.0]))]
    vac = f28.vacuum()
    for length in (2, 3, 4):
        for labels in itertools.product([0, 1], repeat=length):
            op = np.eye(f28.total_dim)
            for l in labels:
                op = op @ s[l]
            val = (vac.conj() @ op @ vac).real
            assert abs(val - brute_force_pairings(labels)) < 1e-12


# -- lifting --------------------------------------------------------------------

def dense_lift(lifted):
    """The (d, total, total) coefficient family of a lifted corep as an
    ndarray, from its sparse horizontal stack."""
    d, total = lifted.parent.d, lifted.fock.total_dim
    return lifted.coef.toarray().reshape(total, d, total).transpose(1, 0, 2)


def test_lift_trivial():
    g = presets.load_preset("dual-Z(2)")
    t = coreps.trivial_corep(g)
    f = fock.TruncatedFock(1, 4)
    lifted = fock.lift_rep(f, t)
    eps_coef = np.einsum("i,ab->iab", g.unit, np.eye(f.total_dim))
    assert np.linalg.norm(dense_lift(lifted) - eps_coef) < 1e-12


def test_lift_sign_character_powers():
    g = presets.load_preset("dual-Z(2)")
    sign = coreps.block_corep(g, 1)
    f = fock.TruncatedFock(1, 6)
    lifted = fock.lift_rep(f, sign)
    for n, b in enumerate(lifted.degree_blocks):
        b = b.toarray().reshape(g.d, 1, 1)
        assert abs(b[1][0, 0] - (n % 2)) < 1e-12
        assert abs(b[0][0, 0] - ((n + 1) % 2)) < 1e-12


def test_lift_depth2_dim2():
    g = presets.load_preset("fn-S3")
    sig = coreps.block_corep(g, 2)
    f = fock.TruncatedFock(2, 2)
    lifted = fock.lift_rep(f, sig)
    assert f.total_dim == 7
    c = coreps.Corep(g, np.tensordot(g.Binv, dense_lift(lifted), axes=([1], [0])))
    assert c.space_dim == 7
    assert max(c.validate().values()) < 1e-9


def test_lift_incompatible_rejected():
    g = presets.load_preset("dual-Z(4)")
    chi1 = coreps.block_corep(g, 1)
    f = fock.TruncatedFock(1, 3)  # J = plain conjugation
    with pytest.raises(CompatibilityFailed):
        fock.lift_rep(f, chi1)


# -- induced action -----------------------------------------------------------------

def test_induced_action_trivial():
    g = presets.load_preset("dual-Z(2)")
    t = coreps.trivial_corep(g)
    f = fock.TruncatedFock(1, 4)
    act = fock.induced_action(fock.lift_rep(f, t))
    s = f.s_operator(np.array([1.0]))
    ax = act.alpha_of(s)
    target = np.einsum("i,ab->iab", g.unit, s.toarray())
    assert np.linalg.norm(ax - target) < 1e-12


def test_induced_action_identities_sign():
    g = presets.load_preset("dual-Z(2)")
    sign = coreps.block_corep(g, 1)
    f = fock.TruncatedFock(1, 6)
    act = fock.induced_action(fock.lift_rep(f, sign))
    omegas = list(np.eye(2))
    assert act.generator_intertwining_residual(np.array([1.0]), omegas) < 1e-12
    s = f.s_operator(np.array([1.0]))
    assert act.vacuum_invariance_residual([[s], [s, s], [s, s, s]]) < 1e-10
    assert act.multiplicativity_residual([s]) < 1e-10


def test_induced_action_identities_s3():
    g = presets.load_preset("fn-S3")
    sig = coreps.block_corep(g, 2)
    f = fock.TruncatedFock(2, 4)
    act = fock.induced_action(fock.lift_rep(f, sig))
    omegas = list(np.eye(6))
    rng = CounterRNG(3)
    for _ in range(2):
        z = rng.complex_vector(2)
        assert act.generator_intertwining_residual(z, omegas) < 1e-9
    z = np.array([1.0, 0.0])
    s = f.s_operator(z)
    assert act.vacuum_invariance_residual([[s], [s, s]]) < 1e-8
    assert act.multiplicativity_residual([s]) < 1e-9


def test_depth_budget_guard():
    g = presets.load_preset("dual-Z(2)")
    sign = coreps.block_corep(g, 1)
    f = fock.TruncatedFock(1, 4)
    act = fock.induced_action(fock.lift_rep(f, sign))
    s = f.s_operator(np.array([1.0]))
    with pytest.raises(DepthExceeded):
        act.vacuum_invariance_residual([[s, s, s]])


# -- asymptotic invariance -----------------------------------------------------------

def test_invariant_vector_zero_defect():
    n = 4
    g = presets.load_preset(f"dual-Z({n})")
    u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(n)])
    jm = np.zeros((n, n))
    for k in range(n):
        jm[(-k) % n, k] = 1.0
    f = fock.TruncatedFock(n, 2, j_conj=jm)
    om = np.exp(2j * np.pi * np.arange(n) / n)
    zeta = np.zeros(n)
    zeta[0] = 1.0  # supported on the trivial character: invariant
    rows = fock.asymptotic_invariance_experiment(f, u, [zeta], om)
    assert rows[0]["corep_defect"] == 0.0
    assert rows[0]["action_defect"] < 1e-12


@pytest.mark.parametrize("n,k", [(8, 1), (8, 2), (32, 1)])
def test_defect_formula(n, k):
    g = presets.load_preset(f"dual-Z({n})")
    u = coreps.direct_sum(*[coreps.block_corep(g, j) for j in range(n)])
    jm = np.zeros((n, n))
    for j in range(n):
        jm[(-j) % n, j] = 1.0
    f = fock.TruncatedFock(n, 2, j_conj=jm)
    om = np.exp(2j * np.pi * np.arange(n) / n)
    z = np.zeros(n)
    z[k] = 1 / np.sqrt(2)
    z[(-k) % n] = 1 / np.sqrt(2)
    rows = fock.asymptotic_invariance_experiment(f, u, [z], om)
    r = rows[0]
    assert abs(r["trace"]) < 1e-10
    assert abs(r["gns_norm"] - 1.0) < 1e-10
    expected = 2 * np.sin(np.pi * k / n)
    assert abs(r["corep_defect"] - expected) < 1e-9
    assert abs(r["action_defect"] - r["corep_defect"]) < 1e-9


# -- traciality -------------------------------------------------------------------

def test_trace_check_single_generator(f28):
    s = f28.s_operator(np.array([1.0, 0.0]))
    assert fock.trace_check(f28, [[s], [s, s]]) < 1e-12


def test_trace_check_two_generators(f28):
    s1 = f28.s_operator(np.array([1.0, 0.0]))
    s2 = f28.s_operator(np.array([0.0, 1.0]))
    words = []
    for length in range(1, 5):
        for combo in itertools.product([s1, s2], repeat=length):
            words.append(list(combo))
    assert fock.trace_check(f28, words) < 1e-12


def test_trace_check_depth_budget(f28):
    s = f28.s_operator(np.array([1.0, 0.0]))
    with pytest.raises(DepthExceeded):
        fock.trace_check(f28, [[s] * 5, [s] * 5])


def _full_vector_trace_check(f, words):
    """trace_check's quantity with every vector on the whole Fock space."""
    vectors = []
    for ops in words:
        v, w = f.vacuum(), f.vacuum()
        for op in reversed(ops):
            v = op @ v
        for op in ops:
            w = op @ w
        vectors.append((v, w))
    return max(abs(complex(w1.conj() @ v2) - complex(w2.conj() @ v1))
               for v1, w1 in vectors for v2, w2 in vectors)


@pytest.mark.parametrize("letters", ["selfadjoint", "complex"])
def test_trace_check_prefix_matches_full_vectors(f28, letters):
    if letters == "selfadjoint":
        zetas = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    else:
        # not selfadjoint: the compared quantity is far from 0
        zetas = [CounterRNG(3).unit_vector(2), CounterRNG(4).unit_vector(2)]
    ops = [f28.s_operator(z) for z in zetas]
    words = [list(c) for n in range(1, 5) for c in itertools.product(ops, repeat=n)]
    expected = _full_vector_trace_check(f28, words)
    assert abs(fock.trace_check(f28, words) - expected) <= 1e-15 * max(1.0, expected)


def test_trace_check_memory_stays_on_the_word_prefix():
    f = fock.TruncatedFock(2, 16)       # full vectors of 2 MB each
    ops = [f.s_operator(np.array([1.0, 0.0])), f.s_operator(np.array([0.0, 1.0]))]
    words = [list(c) for n in range(1, 5) for c in itertools.product(ops, repeat=n)]
    tracemalloc.start()
    try:
        assert fock.trace_check(f, words) < 1e-12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


# -- sparse storage and the byte budget ------------------------------------------------

def test_creation_sparse_matches_dense_loop():
    f = fock.TruncatedFock(3, 4)
    zeta = np.array([1.0, 2.0j, -0.5])
    op = f.creation(zeta)
    assert op.nnz <= f.total_dim - 1
    assert op.nbytes == op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
    ref = np.zeros((f.total_dim, f.total_dim), dtype=complex)
    for n in range(f.depth):
        src, dst = f.degree_offsets[n], f.degree_offsets[n + 1]
        dim = f.degree_dims[n]
        for letter in range(f.base_dim):
            ref[dst + letter * dim + np.arange(dim), src + np.arange(dim)] += zeta[letter]
    assert np.array_equal(op.toarray(), ref)


def dense_fold_blocks(u, depth):
    """Degree blocks by the dense fold sum_{k,j} m[k,j,p] U_j (x) prev_k."""
    g = u.parent
    uc = u.u_coef()
    blocks = [g.unit.reshape(g.d, 1, 1).astype(complex)]
    for _ in range(depth):
        prev = blocks[-1]
        cur = np.zeros((g.d,) + np.kron(uc[0], prev[0]).shape, dtype=complex)
        for k, j, p in np.argwhere(g.mult != 0):
            cur[p] += g.mult[k, j, p] * np.kron(uc[j], prev[k])
        blocks.append(cur)
    return blocks


def gns_trace_corep(name):
    g = presets.load_preset(name)
    w = np.zeros(g.d)
    for n, off in zip(g.block_dims, g.block_offsets):
        for i in range(n):
            w[off + i * n + i] = n / g.d
    c, _, jm = coreps.gns(g, w)
    return c, jm


@pytest.mark.parametrize("case", ["fn-S3:std", "kac-paljutkin:gns"])
def test_sparse_lift_matches_dense_kron_fold(case):
    if case == "fn-S3:std":
        u, jm, depth = coreps.block_corep(presets.load_preset("fn-S3"), 2), np.eye(2), 4
    else:
        (u, jm), depth = gns_trace_corep("kac-paljutkin"), 2
    f = fock.TruncatedFock(u.space_dim, depth, j_conj=jm)
    lifted = fock.lift_rep(f, u)
    ref = dense_fold_blocks(u, depth)
    for b, r in zip(lifted.degree_blocks, ref):
        assert np.max(np.abs(b.toarray().reshape(r.shape) - r)) < 1e-12
    dense = np.zeros((u.parent.d, f.total_dim, f.total_dim), dtype=complex)
    for o, r in zip(f.degree_offsets, ref):
        dense[:, o:o + r.shape[1], o:o + r.shape[1]] = r
    assert np.max(np.abs(dense_lift(lifted) - dense)) < 1e-12


def test_over_budget_alpha_of_raises_before_allocating():
    n = 8
    g = presets.load_preset(f"dual-Z({n})")
    u = coreps.direct_sum(*[coreps.block_corep(g, k) for k in range(n)])
    jm = np.zeros((n, n))
    for k in range(n):
        jm[(-k) % n, k] = 1.0
    f = fock.TruncatedFock(n, 3, j_conj=jm)
    act = fock.induced_action(fock.lift_rep(f, u))
    s = f.s_operator(np.eye(n)[0])
    assert 16 * g.d * f.total_dim ** 2 > fock.BYTE_BUDGET
    tracemalloc.start()
    try:
        with pytest.raises(DepthExceeded):
            act.alpha_of(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_huge_depth_fails_fast():
    with pytest.raises(DepthExceeded):
        fock.TruncatedFock(2, 10 ** 9)


# -- stacked checks against their per-item loops ---------------------------------

def trace_check_per_pair(f, words):
    """trace_check as a loop over word pairs, each word's vectors built alone
    on its degree prefix: the reference of the stacked check."""
    for ops in words:
        for other in words:
            if len(ops) + len(other) > f.depth:
                raise DepthExceeded("word pair exceeds the depth budget")
    vectors = []
    for ops in words:
        n = int(f.degree_offsets[len(ops)] + f.degree_dims[len(ops)])
        v = np.zeros(n, dtype=complex)
        v[0] = 1.0
        w = v.copy()
        for op in reversed(ops):
            v = op[:n, :n] @ v
        for op in ops:
            w = op[:n, :n] @ w
        vectors.append((v, w))
    worst = 0.0
    for v1, w1 in vectors:
        for v2, w2 in vectors:
            val1 = complex(w1[:len(v2)].conj() @ v2[:len(w1)])
            val2 = complex(w2[:len(v1)].conj() @ v1[:len(w2)])
            worst = max(worst, abs(val1 - val2))
    return worst


@pytest.mark.parametrize("letters", ["selfadjoint", "complex"])
def test_trace_check_matches_the_per_pair_loop(f28, letters):
    if letters == "selfadjoint":
        zetas = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.6, 0.8])]
    else:
        zetas = [CounterRNG(s).unit_vector(2) for s in (5, 6, 7)]
    ops = [f28.s_operator(z) for z in zetas]
    every = [list(c) for n in range(5) for c in itertools.product(ops, repeat=n)]
    rng = CounterRNG(11)
    # mixed lengths in a scrambled order, with repeated words
    words = [every[int(u * len(every))] for u in rng.uniforms(40)]
    for family in (every[:40], words, every[1:4], [[ops[0]] * 4]):
        assert fock.trace_check(f28, family) == trace_check_per_pair(f28, family)
    assert fock.trace_check(f28, []) == 0.0


def test_trace_check_raises_as_the_per_pair_loop(f28):
    s = f28.s_operator(np.array([1.0, 0.0]))
    for words in ([[s], [s] * 5], [[s] * 5, [s] * 3, [s]]):
        for check in (fock.trace_check, trace_check_per_pair):
            with pytest.raises(DepthExceeded):
                check(f28, words)
    assert fock.trace_check(f28, [[s] * 4, [s]]) == trace_check_per_pair(f28, [[s] * 4, [s]])


def generator_intertwining_per_omega(act, zeta, omega_family):
    """generator_intertwining_residual as a loop over the omegas: the
    reference of the stacked check."""
    f, g = act.fock, act.parent
    total = f.total_dim
    s_op = f.s_operator(zeta)
    ustar = np.einsum("ki,iba->kab", g.star, np.conj(act.lifted.base.u_coef()))
    worst = 0.0
    for om in omega_family:
        om = np.asarray(om, dtype=complex)
        table = np.einsum("ijk,k->ij", act.prodstar, om)[:, :, None]
        lhs = act._alpha(s_op, table)
        moved = np.tensordot(om, ustar, axes=([0], [0])) @ np.asarray(zeta)
        rhs = f.s_operator(moved).reshape((1, total * total))
        worst = max(worst, linalg.frob_stack([lhs - rhs]))
    return worst


@pytest.mark.parametrize("name", ["dual-Z(6)", "kac-paljutkin", "fn-S3:std"])
def test_generator_intertwining_matches_the_per_omega_loop(name):
    if name == "fn-S3:std":
        u, jm = coreps.block_corep(presets.load_preset("fn-S3"), 2), np.eye(2)
    else:
        u, jm = gns_trace_corep(name)
    g = u.parent
    f = fock.TruncatedFock(u.space_dim, 2, j_conj=jm)
    act = fock.induced_action(fock.lift_rep(f, u))
    # the experiment's J-real unit vector, and a vector that is not J-real
    v = np.ones(u.space_dim, dtype=complex)
    v = v + f.apply_j(v)
    rng = CounterRNG(13)
    families = [list(np.eye(g.d)), [rng.complex_vector(g.d) for _ in range(3)],
                [rng.unit_vector(g.d)]]
    for zeta in (v / np.linalg.norm(v), rng.unit_vector(u.space_dim)):
        for omegas in families:
            got = act.generator_intertwining_residual(zeta, omegas)
            assert got == generator_intertwining_per_omega(act, zeta, omegas)
    assert act.generator_intertwining_residual(v, []) == 0.0


# -- the Fock sums against the staged sparse products they replaced ------------------
# structure_sum_sparse, _entries, _hstack and _kron_sum as they stood before
# the Fock sums became linalg.contract chains, copied verbatim: the reference
# of every == below.

def structure_sum_sparse(c, left, right):
    c = np.asarray(c)
    d1, d2, nk = c.shape
    m, p = left.shape[0] // d1, right.shape[1] // d2
    prod = sparse.coo_array(left @ right)
    i, a = np.divmod(prod.coords[0].astype(np.int64), m)
    j, b = np.divmod(prod.coords[1].astype(np.int64), p)
    pairs = sparse.csr_array((prod.data, (i * d2 + j, a * p + b)),
                             shape=(d1 * d2, m * p))
    weights = np.where(np.abs(c) > 1e-16, c, 0).reshape(d1 * d2, nk).T
    return sparse.csr_array(weights) @ pairs


def _entries(rows, n):
    rows = sparse.coo_array(rows)
    i, ab = (c.astype(np.int64) for c in rows.coords)
    a, b = np.divmod(ab, n)
    return i, a, b, rows.data


def _hstack(rows, m, n):
    i, a, b, v = _entries(rows, n)
    return sparse.csr_array((v, (a, i * n + b)), shape=(m, rows.shape[0] * n))


def _kron_sum(c, x, xshape, y, yshape):
    (m1, n1), (m2, n2) = xshape, yshape
    i, a, b, v = _entries(x, n1)
    t = np.arange(m2)[:, None]
    rows, cols = (i * m1 + a) * m2 + t, b * m2 + t
    left = sparse.csr_array(
        (np.broadcast_to(v, rows.shape).ravel(), (rows.ravel(), cols.ravel())),
        shape=(x.shape[0] * m1 * m2, n1 * m2))
    j, a, b, v = _entries(y, n2)
    t = np.arange(n1)[:, None]
    rows, cols = t * m2 + a, j * (n1 * n2) + t * n2 + b
    right = sparse.csr_array(
        (np.broadcast_to(v, rows.shape).ravel(), (rows.ravel(), cols.ravel())),
        shape=(n1 * m2, y.shape[0] * n1 * n2))
    return structure_sum_sparse(c, left, right)


def staged_degree_blocks(u, depth):
    """The lift's degree blocks by the staged fold, as dense stacks."""
    g, k = u.parent, u.space_dim
    uc = sparse.csr_array(u.u_coef().reshape(g.d, k * k))
    mt = np.transpose(g.mult, (1, 0, 2))
    cur = sparse.csr_array(g.unit.reshape(g.d, 1))
    blocks = [cur.toarray().reshape(g.d, 1, 1)]
    for n in range(1, depth + 1):
        dp = k ** (n - 1)
        cur = _kron_sum(mt, uc, (k, k), cur, (dp, dp))
        blocks.append(cur.toarray().reshape(g.d, k ** n, k ** n))
    return blocks


def staged_alpha(act, x, c):
    coef = act.lifted.coef
    return structure_sum_sparse(c, sparse.csr_array(coef.conj().T) @ sparse.csr_array(x), coef)


def staged_averaged_vector(act, omega, x, vec):
    d, total = act.parent.d, act.fock.total_dim
    coef = act.lifted.coef
    fv = (coef.reshape((total * d, total)) @ vec).reshape(total, d)
    out = structure_sum_sparse(act._omega_table(omega),
                               sparse.csr_array(coef.conj().T) @ sparse.csr_array(x), fv)
    return out.toarray().reshape(total)


def staged_multiplicativity(act, ops, star_mult):
    g, total = act.parent, act.fock.total_dim
    x = act.fock.word_operator(ops)
    ax = staged_alpha(act, x, star_mult)
    axx = staged_alpha(act, x @ x, star_mult)
    prod = structure_sum_sparse(g.mult, ax.reshape((g.d * total, total)),
                                _hstack(ax, total, total))
    return linalg.frob_stack([axx - prod])


@pytest.mark.parametrize("name", ["dual-Z(6)", "dual-Z(8)", "kac-paljutkin", "grp-S3", "fn-S3"])
def test_fock_sums_equal_the_staged_sparse_products(name):
    # the fock_suite lift: the GNS corep of the dimension-weighted trace at
    # depth 2, and its J-real unit vector
    u, jm = gns_trace_corep(name)
    g = u.parent
    f = fock.TruncatedFock(u.space_dim, 2, j_conj=jm)
    lifted = fock.lift_rep(f, u)
    for got, ref in zip(lifted.degree_blocks, staged_degree_blocks(u, 2), strict=True):
        assert np.array_equal(got.toarray().reshape(ref.shape), ref)
    act = fock.induced_action(lifted)
    v = np.ones(u.space_dim, dtype=complex)
    v = v + f.apply_j(v)
    sv = f.s_operator(v / np.linalg.norm(v))
    star_mult = np.tensordot(g.star, g.mult, axes=([0], [0]))
    omegas = np.eye(g.d)[:2]
    # a field operator (sorted rows) and a word (a product's row order)
    for x in (sv, f.word_operator([sv, sv])):
        for c in (star_mult, act._omega_table(omegas)):
            assert np.array_equal(act._alpha(x, c).toarray(), staged_alpha(act, x, c).toarray())
        assert np.array_equal(act.averaged_vector(omegas[1], x, f.vacuum()),
                              staged_averaged_vector(act, omegas[1], x, f.vacuum()))
    assert act.multiplicativity_residual([sv]) == staged_multiplicativity(act, [sv], star_mult)


def test_contracting_a_family_leaves_its_degree_block_as_it_was():
    # a product's rows are unsorted, and contract sorts them in place when
    # it regroups them; the degree block, the family's own matrix, must stay
    # the same matrix
    rng = np.random.default_rng(3)
    a = sparse.csr_array(rng.standard_normal((4, 9)) * (rng.random((4, 9)) < 0.6))
    b = sparse.csr_array(rng.standard_normal((9, 9)) * (rng.random((9, 9)) < 0.6))
    family = fock._family(a @ b, 4, 3, 3)
    assert not family.mat.has_sorted_indices
    block = family.mat
    before = block.toarray()
    x = linalg.Structure(rng.standard_normal((2, 2, 2)))
    linalg.contract(x, "iab", family, "jce", "iabjce")
    assert family.mat.has_sorted_indices
    assert np.array_equal(block.toarray(), before)
    assert np.array_equal(before, (a @ b).toarray())
