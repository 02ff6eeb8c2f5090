import numpy as np
import pytest

from qgwb import functionals as F
from qgwb import linalg, presets
from qgwb._rng import CounterRNG
from qgwb.core import FiniteQG
from qgwb.errors import ParentMismatch, WindowTruncation
from qgwb.genfun import cnd_gram, validate_generating
from qgwb.windows import build_window


def rand_functional(parent, seed):
    rng = CounterRNG(seed)
    return F.Functional(parent, rng.complex_vector(parent.d))


def rand_state(parent, seed):
    rng = CounterRNG(seed)
    return F.vector_state(parent, rng.unit_vector(parent.d))


@pytest.mark.parametrize("name", ["dual-Z(4)", "fn-S3", "grp-S3", "kac-paljutkin"])
def test_counit_is_convolution_unit(name):
    g = presets.load_preset(name)
    eps = F.counit_functional(g)
    mu = rand_functional(g, 11)
    left = F.convolve(eps, mu)
    right = F.convolve(mu, eps)
    assert np.max(np.abs(left.coeffs - mu.coeffs)) < 1e-10
    assert np.max(np.abs(right.coeffs - mu.coeffs)) < 1e-10


@pytest.mark.parametrize("name", ["dual-Z(3)", "fn-S3", "kac-paljutkin"])
def test_convolution_associative(name):
    g = presets.load_preset(name)
    mu, nu, rho = (rand_functional(g, s) for s in (1, 2, 3))
    left = F.convolve(F.convolve(mu, nu), rho)
    right = F.convolve(mu, F.convolve(nu, rho))
    assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-10


def test_convolution_blockwise_route():
    g = presets.load_preset("kac-paljutkin")
    mu, nu = rand_functional(g, 4), rand_functional(g, 5)
    a = F.convolve(mu, nu)
    b = F.convolve_blockwise(mu, nu)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10


def test_character_convolution_on_dual_z3():
    g = presets.load_preset("dual-Z(3)")
    omega = np.exp(2j * np.pi / 3)
    # evaluation at the group element g: the character triple (1, w, w-bar)
    mu = F.Functional(g, np.array([1.0, omega, np.conj(omega)]))
    sq = F.convolve(mu, mu)
    expected = np.array([1.0, omega ** 2, np.conj(omega) ** 2])
    assert np.max(np.abs(sq.coeffs - expected)) < 1e-12


def test_window_convolution_pointwise():
    w = build_window("free(2)", 3)
    rng = CounterRNG(7)
    f = F.Functional(w, rng.complex_vector(w.d))
    g = F.Functional(w, rng.complex_vector(w.d))
    conv = F.convolve(f, g)
    assert np.max(np.abs(conv.coeffs - f.coeffs * g.coeffs)) < 1e-14


def test_parent_mismatch():
    g1, g2 = presets.load_preset("dual-Z(2)"), presets.load_preset("dual-Z(3)")
    with pytest.raises(ParentMismatch):
        F.convolve(rand_functional(g1, 1), rand_functional(g2, 1))


# -- positivity ---------------------------------------------------------------

def test_haar_state_positive():
    for name in ("dual-Z(4)", "fn-S3", "kac-paljutkin"):
        g = presets.load_preset(name)
        assert F.is_positive(F.haar_functional(g))


def test_window_bochner_exponential():
    w = build_window("Z(1)", 6)
    f = F.Functional(w, np.array([np.exp(-abs(g[0])) for g in w.elements]))
    gram = F.positivity_matrix(f)
    assert gram.shape == (7, 7)
    assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0] >= -1e-9
    assert F.is_positive(f)


def test_window_bochner_negative_example():
    w = build_window("Z(1)", 6)
    f = F.Functional(w, np.array([1.0 - abs(g[0]) for g in w.elements]))
    gram = F.positivity_matrix(f)
    assert np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0] < -1e-9
    assert not F.is_positive(f)


def test_positivity_closure():
    g = presets.load_preset("kac-paljutkin")
    mu, nu = rand_state(g, 21), rand_state(g, 22)
    assert F.is_positive(F.convolve(mu, nu))
    assert F.is_positive(F.adjoint(mu))
    assert F.is_positive(0.25 * mu + 0.75 * nu)


def test_window_truncation_error():
    # custom window whose only length-1 products are undefined
    table = {
        "label": "truncated",
        "elements": ["e", "a", "A"],
        "lengths": [0, 1, 1],
        "inverse": ["e", "A", "a"],
        "product": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"],
                    ["e", "A", "A"], ["A", "e", "A"], ["a", "A", "e"],
                    ["A", "a", "e"]],
    }
    w = build_window(("custom", table), 1)
    f = F.Functional(w, np.ones(3))
    with pytest.raises(WindowTruncation):
        F.positivity_matrix(f)
    with pytest.raises(WindowTruncation, match="product of 'a', 'a' leaves the window"):
        w.diff_index(1)
    with pytest.raises(WindowTruncation):
        cnd_gram(f)


@pytest.mark.parametrize("spec,radius", [("free(2)", 4), ("Z(3)^2", 4)])
def test_window_index_tables_match_labels(spec, radius):
    w = build_window(spec, radius)
    assert [w.elements[i] for i in w.inv_index] == [w.inv(g) for g in w.elements]
    for s in range(radius // 2 + 1):
        sub = [g for g in w.elements if w.length(g) <= s]
        table = w.diff_index(s)
        assert table.shape == (len(sub), len(sub))
        assert [[w.elements[i] for i in row] for row in table] == \
            [[w.mul(w.inv(g), h) for h in sub] for g in sub]
        assert w.diff_index(s) is table


# -- the shared parent members: d, counit, unit, form ------------------------

@pytest.mark.parametrize("name", ["kac-paljutkin", "fn-S3"])
def test_form_matches_brute_force_on_finite_qg(name):
    g = presets.load_preset(name)
    mu = rand_functional(g, 41)
    basis = np.eye(g.d)
    # e_i^* has coefficient vector star[:, i]
    brute = np.array([[mu(g.mul(g.star[:, i], basis[j])) for j in range(g.d)]
                      for i in range(g.d)])
    assert np.max(np.abs(g.form(mu.coeffs) - brute)) < 1e-12
    assert np.array_equal(F.positivity_matrix(mu), g.form(mu.coeffs))


@pytest.mark.parametrize("spec,radius", [("free(2)", 4), ("Z(3)^2", 4)])
def test_form_matches_brute_force_on_windows(spec, radius):
    w = build_window(spec, radius)
    mu = rand_functional(w, 42)
    for s in (None, 1, radius // 2):
        sub = [g for g in w.elements if w.length(g) <= (radius // 2 if s is None else s)]
        brute = np.array([[mu.coeffs[w.index[w.mul(w.inv(g), h)]] for h in sub]
                          for g in sub])
        assert np.array_equal(w.form(mu.coeffs, s), brute)
    assert np.array_equal(F.positivity_matrix(mu), w.form(mu.coeffs))


def test_window_counit_unit_and_at_unit():
    w = build_window("free(2)", 3)
    assert w.d == len(w.elements)
    assert np.array_equal(w.counit, np.ones(w.d))
    assert np.array_equal(w.unit, np.eye(w.d)[0])
    assert not w.counit.flags.writeable and not w.unit.flags.writeable
    mu = rand_functional(w, 43)
    assert mu.at_unit() == mu.value(w.identity)
    assert np.array_equal(F.counit_functional(w).coeffs, np.ones(w.d))
    assert F.counit_functional(w).at_unit() == 1.0


# -- block forms -------------------------------------------------------------

def test_counit_blocks_are_identities():
    g = presets.load_preset("kac-paljutkin")
    for b, n in zip(F.counit_functional(g).blocks(), g.block_dims):
        assert np.linalg.norm(b - np.eye(n), 2) < 1e-12


def test_state_blocks_on_dual_z4_are_bounded_by_one():
    g = presets.load_preset("dual-Z(4)")
    blocks = rand_state(g, 30).blocks()
    # Fourier coefficients of a state are bounded by 1
    for b in blocks:
        assert abs(b[0, 0]) <= 1 + 1e-12
    assert abs(blocks[0][0, 0] - 1.0) < 1e-12  # normalisation at the unit
    assert not F.is_state(rand_functional(g, 31))


def test_central_state_blocks_on_kac_paljutkin():
    g = presets.load_preset("kac-paljutkin")
    # convex combination of haar and counit is central on every block
    mu = 0.5 * F.haar_functional(g) + 0.5 * F.counit_functional(g)
    assert F.is_state(mu)
    for b in mu.blocks():
        n = b.shape[0]
        assert np.linalg.norm(b - np.trace(b) / n * np.eye(n)) <= 1e-10
        assert abs(b[0, 0]) <= 1 + 1e-12


def test_adjoint_on_dual_z4_reads_inverses():
    # on a group algebra the adjoint reads conjugate values at inverses
    g = presets.load_preset("dual-Z(4)")
    mu = F.Functional(g, CounterRNG(71).complex_vector(4))
    bar = F.adjoint(mu)
    for j in range(4):
        assert abs(bar.coeffs[j] - np.conj(mu.coeffs[(-j) % 4])) < 1e-12
    assert np.max(np.abs(F.adjoint(bar).coeffs - mu.coeffs)) < 1e-12


# -- convolution semigroups ----------------------------------------------------

def _checked_semigroup(lf, times):
    """The members mu_t of the semigroup of lf on the grid, after checking
    that lf is generating, that each mu_t is a state, that mu_0 is the
    counit and that mu_s * mu_t = mu_{s+t} on the grid, within 1e-9."""
    validate_generating(lf)
    states = F.semigroup_state(lf, times)
    eps = F.counit_functional(lf.parent)
    for t, mu in zip(times, states):
        assert F.is_state(mu)
        if t == 0.0:
            assert np.max(np.abs(mu.coeffs - eps.coeffs)) <= 1e-9
    assert max(r for _, r in F.semigroup_law_residuals(lf, times, states)) <= 1e-9
    return states


def _exp_star_series(l, max_terms=60):
    """exp_*(l) = sum_k l^{*k} / k!, summed until a term's coefficients fall
    below 1e-16: the series oracle of semigroup_state's closed form."""
    out = term = F.counit_functional(l.parent)
    for k in range(1, max_terms + 1):
        term = F.convolve(term, l) * (1.0 / k)
        out = out + term
        if np.max(np.abs(term.coeffs)) < 1e-16:
            return out
    raise AssertionError(f"the series has not converged after {max_terms} terms")


def test_semigroup_of_zero_generator():
    g = presets.load_preset("kac-paljutkin")
    zero = F.Functional(g, np.zeros(g.d))
    states = _checked_semigroup(zero, [0.0, 0.5, 2.0])
    eps = F.counit_functional(g)
    for s in states:
        assert np.max(np.abs(s.coeffs - eps.coeffs)) < 1e-12


def test_semigroup_on_window_word_length():
    w = build_window("Z(1)", 6)
    wl = F.Functional(w, np.array([float(w.length(g)) for g in w.elements]))
    states = _checked_semigroup(wl, [0.1, 1.0, 10.0])
    mu1 = states[1]
    two = w.index[(2,)]
    assert abs(mu1.coeffs[two] - np.exp(-2.0)) < 1e-12
    assert abs(np.exp(-2.0) - 0.135335) < 1e-6


def test_semigroup_of_dual_z2_character():
    g = presets.load_preset("dual-Z(2)")
    # a = (1, -1): exp(a - 1) = (1, e^-2), and mu_1 is a state
    chi = F.Functional(g, np.array([1.0, -1.0]))
    e = F.semigroup_state(F.counit_functional(g) - chi, 1.0)
    blocks = e.blocks()
    assert abs(blocks[0][0, 0] - 1.0) < 1e-12
    assert abs(blocks[1][0, 0] - np.exp(-2.0)) < 1e-10
    assert F.is_state(e)


def test_semigroup_central_on_kac_paljutkin():
    g = presets.load_preset("kac-paljutkin")
    cvals = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    blocks = [cvals[a] * np.eye(n) for a, n in enumerate(g.block_dims)]
    lf = F.from_blocks(g, blocks)
    for t in (0.1, 1.0):
        mu_t = F.semigroup_state(lf, t)
        series = _exp_star_series(-t * lf)
        assert np.max(np.abs(mu_t.coeffs - series.coeffs)) < 1e-10
        for a, b in enumerate(mu_t.blocks()):
            n = g.block_dims[a]
            assert np.linalg.norm(b - np.exp(-t * cvals[a]) * np.eye(n)) < 1e-10


@pytest.mark.parametrize("name", ["dual-Z(4)", "fn-S3", "kac-paljutkin"])
def test_semigroup_state_property_on_grid(name):
    g = presets.load_preset(name)
    mu = rand_state(g, 40)
    lf = 2.0 * (F.counit_functional(g) - mu)
    _checked_semigroup(lf, [0.0, 0.1, 1.0, 10.0])


def test_conv_exp_semigroup_full_grid_presets_and_window():
    for name in ("dual-Z(4)", "kac-paljutkin"):
        g = presets.load_preset(name)
        mu = F.vector_state(g, CounterRNG(5).unit_vector(g.d))
        lf = 1.5 * (F.counit_functional(g) - mu)
        _checked_semigroup(lf, [0.0, 0.1, 1.0, 10.0])
    w = build_window("Z(1)", 6)
    wl = F.Functional(w, np.array([float(w.length(x)) for x in w.elements]))
    _checked_semigroup(wl, [0.0, 0.1, 1.0, 10.0])


# -- stacked semigroup path ------------------------------------------------------

QG_PRESETS = [row["name"] for row in presets.preset_table() if row["kind"] == "qg"]
GRID = [0.1, 0.5, 1.0]


def _semigroup_state_per_block(lf, t):
    """mu_t with each block exponentiated alone (a 2-d linalg.expm call):
    the reference of the stacked path."""
    if lf.is_window:
        return F.Functional(lf.parent, np.exp(-t * lf.coeffs))
    return F.from_blocks(lf.parent, [linalg.expm(-t * b) for b in lf.blocks()])


def _semigroup_generator(parent, seed=0):
    """The generator the semigroup experiment builds: 3 (eps - mu) for a
    random vector state mu, or the word length on a window."""
    if isinstance(parent, FiniteQG):
        mu = F.vector_state(parent, CounterRNG(seed).unit_vector(parent.d))
        return 3.0 * (F.counit_functional(parent) - mu)
    return F.Functional(parent, parent.lengths)


def _parent(name):
    if name.startswith("window:"):
        spec, radius = name[len("window:"):].split(" r=")
        return build_window(spec, int(radius))
    return presets.load_preset(name)


@pytest.mark.parametrize("name", QG_PRESETS + ["window:free(2) r=4"])
def test_semigroup_state_over_times_is_bit_identical(name):
    lf = _semigroup_generator(_parent(name))
    times = GRID + [s + t for s in GRID for t in GRID] + [1e-4, 5e-5]
    states = F.semigroup_state(lf, times)
    assert len(states) == len(times)
    for t, mu in zip(times, states):
        one = F.semigroup_state(lf, t)
        assert np.array_equal(mu.coeffs, one.coeffs)
        assert np.array_equal(one.coeffs, _semigroup_state_per_block(lf, t).coeffs)
    assert F.semigroup_state(lf, []) == []


SERIES_PARENTS = ["kac-paljutkin", "fn-S3", "dual-Z(6)", "window:Z(1) r=6"]


@pytest.mark.parametrize("t", [0.1, 1.0])
@pytest.mark.parametrize("name", SERIES_PARENTS)
def test_semigroup_state_matches_the_series(name, t):
    lf = _semigroup_generator(_parent(name))
    series = _exp_star_series(-t * lf)
    assert np.max(np.abs(F.semigroup_state(lf, t).coeffs - series.coeffs)) < 1e-10


@pytest.mark.parametrize("name", SERIES_PARENTS)
def test_semigroup_state_at_zero_is_the_counit(name):
    parent = _parent(name)
    mu_0 = F.semigroup_state(_semigroup_generator(parent), 0.0)
    assert np.max(np.abs(mu_0.coeffs - F.counit_functional(parent).coeffs)) < 1e-12


def _is_positive_reference(mu, tol=1e-9):
    """is_positive as it was: the gram checked, then min_eig of the
    symmetrised gram."""
    gram = F.positivity_matrix(mu)
    if linalg.hermiticity_defect(gram) > max(1.0, linalg.frob(gram)) * 1e-9:
        return False
    return linalg.min_eig(0.5 * (gram + gram.conj().T)) >= -tol


@pytest.mark.parametrize("name", ["dual-Z(5)", "fn-S3", "grp-S3", "kac-paljutkin"])
def test_is_positive_keeps_its_verdicts(name):
    g = presets.load_preset(name)
    rng = CounterRNG(31)
    lf = _semigroup_generator(g, 4)
    family = [rand_state(g, 60), rand_functional(g, 61), lf, -1.0 * lf,
              F.Functional(g, rng.complex_vector(g.d))]
    family += F.semigroup_state(lf, [0.0, 0.3, 2.0])
    for mu in family:
        for tol in (1e-9, 1e-3):
            assert F.is_positive(mu, tol) == _is_positive_reference(mu, tol)
    assert any(F.is_positive(mu) for mu in family)
    assert not all(F.is_positive(mu) for mu in family)


QG_PRESETS = [name for name in presets.preset_names() if presets.parse(name).kind == "qg"]


@pytest.mark.parametrize("name", QG_PRESETS)
def test_vector_state_matches_the_basis_loop(name, monkeypatch):
    # rowmul(rowmul(conj(xi), R), xi) over the stack R of reg(e_i) has the
    # bits of <xi, reg(e_i) xi> taken one i at a time, also in small slices
    g = presets.load_preset(name)
    for seed in range(3):
        xi = CounterRNG(seed).unit_vector(g.d)
        x = xi / np.linalg.norm(xi)
        ref = np.array([x.conj() @ g.reg(np.eye(g.d)[i]) @ x for i in range(g.d)])
        assert np.array_equal(F.vector_state(g, xi).coeffs, ref)
    monkeypatch.setattr(linalg, "SLICE_BYTES", 1)
    assert np.array_equal(F.vector_state(g, xi).coeffs, ref)
