"""Algebra-core checks: basis structure, Stokes maps, hyperspherical chart.

Finite-difference and outer-product oracles are implemented inline; every
expected constant asserted here was computed from those oracles or is forced
by the frozen basis ordering.
"""
from __future__ import annotations

import numpy as np
import pytest

from stokesopt.errors import DimensionError
from stokesopt.gellmann import (
    angles_to_states,
    angles_to_states_jacobian,
    assemble,
    expand_matrix,
    gell_mann_basis,
    jones_to_stokes,
    jones_to_stokes_batch,
    norm_coeff,
    projection_operator,
    states_to_angles,
    stokes_dot_from_jones,
)

ALL_N = [2, 3, 4, 5, 6, 7, 8]


def random_unit_states(rng, count, n):
    raw = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return raw / np.linalg.norm(raw, axis=1)[:, None]


@pytest.mark.parametrize("n", ALL_N)
def test_basis_orthonormality_traceless_hermitian(n):
    b = gell_mann_basis(n)
    assert len(b) == n * n - 1
    flat = b.reshape(len(b), -1)
    overlaps = (flat.conj() @ flat.T).real
    assert np.max(np.abs(overlaps - 2.0 * np.eye(len(b)))) < 1e-12
    for lam in b:
        assert abs(np.trace(lam)) < 1e-12
        assert np.max(np.abs(lam - lam.conj().T)) < 1e-12


def test_basis_n2_is_pauli_triple():
    b = gell_mann_basis(2)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]])
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    assert np.array_equal(b[0], s1)
    assert np.array_equal(b[1], s2)
    assert np.array_equal(b[2], s3)


def test_basis_ordering_families():
    # symmetric block, antisymmetric block, then diagonal ladder
    n = 4
    b = gell_mann_basis(n)
    npairs = n * (n - 1) // 2
    for i in range(npairs):
        assert np.max(np.abs(b[i].imag)) == 0.0
    for i in range(npairs, 2 * npairs):
        assert np.max(np.abs(b[i].real)) == 0.0
    for i in range(2 * npairs, len(b)):
        off = b[i] - np.diag(np.diag(b[i]))
        assert np.max(np.abs(off)) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_completeness_relation(n):
    # sum_i (L_i)_{ab} (L_i)_{cd} = 2 (delta_ad delta_bc - delta_ab delta_cd / n);
    # this identity is what collapses Stokes dots to Jones overlaps
    b = gell_mann_basis(n)
    lhs = np.einsum("iab,icd->abcd", b, b)
    eye = np.eye(n)
    rhs = 2.0 * (np.einsum("ad,bc->abcd", eye, eye)
                 - np.einsum("ab,cd->abcd", eye, eye) / n)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_norm_coeff_values():
    assert norm_coeff(2) == pytest.approx(1.0, abs=1e-15)
    assert norm_coeff(3) == pytest.approx(np.sqrt(3.0 / 4.0), abs=1e-15)
    with pytest.raises(DimensionError):
        norm_coeff(1)


def test_stokes_image_first_eigenmode_n2():
    shat = jones_to_stokes(np.array([1.0, 0.0]))
    assert np.allclose(shat, [0.0, 0.0, 1.0], atol=1e-15)


def test_stokes_image_first_eigenmode_n4():
    shat = jones_to_stokes(np.eye(4)[0])
    assert shat.shape == (15,)
    assert abs(np.linalg.norm(shat) - 1.0) < 1e-12
    # only diagonal generators see a basis state
    assert np.max(np.abs(shat[:12])) == 0.0


@pytest.mark.parametrize("n", ALL_N)
def test_stokes_image_unit_norm(n):
    rng = np.random.default_rng(100 + n)
    for s in random_unit_states(rng, 50, n):
        assert abs(np.linalg.norm(jones_to_stokes(s)) - 1.0) < 1e-12


@pytest.mark.parametrize("n", ALL_N)
def test_overlap_identity_thousand_pairs(n):
    # shat_a . shat_b == 2 c_n^2 (|<a|b>|^2 - 1/n), explicit-map route vs
    # Jones-overlap route
    rng = np.random.default_rng(2000 + n)
    a = random_unit_states(rng, 1000, n)
    b = random_unit_states(rng, 1000, n)
    sa = jones_to_stokes_batch(a)
    sb = jones_to_stokes_batch(b)
    explicit = np.sum(sa * sb, axis=1)
    shortcut = np.array([stokes_dot_from_jones(x, y) for x, y in zip(a, b)])
    assert np.max(np.abs(explicit - shortcut)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_orthogonal_states_dot(n):
    e0 = np.eye(n)[0]
    e1 = np.eye(n)[1]
    assert stokes_dot_from_jones(e0, e1) == pytest.approx(-1.0 / (n - 1), abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_projection_operator_matches_outer_product(n):
    rng = np.random.default_rng(300 + n)
    for s in random_unit_states(rng, 20, n):
        proj = projection_operator(s)
        outer = np.outer(s, s.conj())
        assert np.max(np.abs(proj - outer)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_expand_assemble_round_trip_general_complex(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(20):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        back = assemble(n, *expand_matrix(m))
        assert np.max(np.abs(back - m)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_assemble_stack_is_its_single_calls(n):
    rng = np.random.default_rng(430 + n)
    vecs = rng.standard_normal((2, 3, n * n - 1))
    for scalar in (1.0, -0.25, 1.5 - 2j):
        stack = assemble(n, scalar, vecs)
        assert stack.shape == (2, 3, n, n)
        for idx in np.ndindex(2, 3):
            single = assemble(n, scalar, vecs[idx])
            assert stack[idx].tobytes() == single.tobytes()
    with pytest.raises(DimensionError):
        assemble(n, 1.0, np.zeros((3, n * n)))
    with pytest.raises(DimensionError):
        assemble(n, 1.0, 0.5)


def test_expand_hermitian_gives_real_coefficients():
    rng = np.random.default_rng(41)
    n = 5
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2
    scalar, vector = expand_matrix(h)
    assert abs(scalar.imag) <= 1e-12
    assert np.max(np.abs(vector.imag)) <= 1e-12


def test_expand_recovers_delay_vector():
    # assemble a group-delay operator from known (tau0, tau_vec), re-expand
    rng = np.random.default_rng(42)
    n = 4
    tau0 = 1.7
    tau = rng.standard_normal(n * n - 1)
    scalar, vector = expand_matrix(assemble(n, tau0, tau))
    assert scalar == pytest.approx(tau0, abs=1e-13)
    assert np.max(np.abs(vector.real - tau)) < 1e-12
    assert np.max(np.abs(vector.imag)) < 1e-13


def test_batch_matches_single():
    rng = np.random.default_rng(43)
    states = random_unit_states(rng, 10, 5)
    batch = jones_to_stokes_batch(states)
    for row, s in zip(batch, states):
        assert np.max(np.abs(row - jones_to_stokes(s))) < 1e-14


def test_dimension_errors():
    with pytest.raises(DimensionError):
        jones_to_stokes(np.array([1.0]))
    with pytest.raises(DimensionError):
        stokes_dot_from_jones(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(DimensionError):
        expand_matrix(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# hyperspherical chart
# ---------------------------------------------------------------------------

def random_angles(rng, count, n):
    """(count, 2(n-1)) chart angles: polar angles off the poles, then phases."""
    phis = rng.uniform(0.05, np.pi / 2 - 0.05, (count, n - 1))
    thetas = rng.uniform(-np.pi, np.pi, (count, n - 1))
    return np.hstack([phis, thetas])


def test_chart_n2_explicit_form():
    phi, theta = 0.7, -1.3
    s = angles_to_states(np.array([[phi, theta]]))[0]
    expect = np.array([np.cos(phi), np.sin(phi) * np.exp(1j * theta)])
    assert np.max(np.abs(s - expect)) < 1e-15


@pytest.mark.parametrize("n", ALL_N)
def test_chart_unit_norm(n):
    rng = np.random.default_rng(500 + n)
    phis = rng.uniform(0, np.pi, (40, n - 1))
    thetas = rng.uniform(-np.pi, np.pi, (40, n - 1))
    states = angles_to_states(np.hstack([phis, thetas]))
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_chart_derivative_matches_finite_differences(n):
    # central-difference oracle; step 1e-6 keeps binary64 roundoff (~eps/h)
    # an order below the 1e-9 tolerance while truncation stays ~1e-13
    rng = np.random.default_rng(600 + n)
    h = 1e-6
    angles = random_angles(rng, 5, n)
    _, jac = angles_to_states_jacobian(angles)
    for p in range(2 * (n - 1)):
        bump = np.zeros_like(angles)
        bump[:, p] = h
        fd = (angles_to_states(angles + bump)
              - angles_to_states(angles - bump)) / (2 * h)
        assert np.max(np.abs(jac[:, p] - fd)) < 1e-9


def test_chart_pole_gives_zero_derivative_no_nan():
    # sin(phi_0) = 0 collapses every later component; the dependent angle
    # derivatives must vanish identically
    n = 4
    angles = np.array([[0.0, 0.4, 1.1, 0.3, -0.2, 0.9]])
    _, jac = angles_to_states_jacobian(angles)
    assert np.all(np.isfinite(jac))
    assert np.max(np.abs(jac[0, n - 1])) == 0.0      # d / d theta_0
    assert np.max(np.abs(jac[0, 1])) == 0.0          # d / d phi_1


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_chart_inverse_round_trip(n):
    rng = np.random.default_rng(700 + n)
    # chart points reproduce exactly
    s = angles_to_states(random_angles(rng, 10, n))
    s2 = angles_to_states(states_to_angles(s))
    assert np.max(np.abs(s - s2)) < 1e-12
    # arbitrary unit states reproduce up to the global phase gauge
    s = random_unit_states(rng, 10, n)
    s2 = angles_to_states(states_to_angles(s))
    ov = np.einsum("qc,qc->q", s2.conj(), s)
    assert np.max(np.abs(np.abs(ov) - 1.0)) < 1e-10
    assert np.max(np.abs(s * (ov.conj() / np.abs(ov))[:, None] - s2)) < 1e-10


def test_states_to_angles_rejects_bad_input():
    with pytest.raises(DimensionError):
        states_to_angles(np.array([[1.0, 1.0]]))         # not unit norm
    with pytest.raises(DimensionError):
        states_to_angles(np.array([1.0, 0.0]))           # not a stack
    with pytest.raises(DimensionError):
        states_to_angles(np.ones((3, 1)))                # one mode


@pytest.mark.parametrize("shape", [(6,), (2, 3, 4), (3, 0), (3, 3), (3, 5)])
def test_malformed_angle_arrays_raise(shape):
    angles = np.zeros(shape)
    with pytest.raises(DimensionError):
        angles_to_states(angles)
    with pytest.raises(DimensionError):
        angles_to_states_jacobian(angles)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_jacobian_states_are_the_chart_states_bitwise(n):
    # the descent reuses a probe's factor for the gradient at the same
    # angles, so both routes must give the very same states
    angles = np.random.default_rng(800 + n).uniform(-np.pi, 2 * np.pi,
                                                     (12, 2 * (n - 1)))
    assert np.array_equal(angles_to_states_jacobian(angles)[0],
                          angles_to_states(angles))


def _two_loop_jacobian(angles):
    """The chart Jacobian as first written, marching the sine gaps with two
    Python loops; the reference the vectorized one must match bit for bit."""
    states = angles_to_states(angles)
    angles = np.asarray(angles, dtype=float)
    nm1 = angles.shape[1] // 2
    phis, thetas = angles[:, :nm1], angles[:, nm1:]
    m = phis.shape[0]
    n = nm1 + 1
    sin = np.sin(phis)
    cos = np.cos(phis)
    prefix = np.ones((m, n))
    np.cumprod(sin, axis=1, out=prefix[:, 1:])
    phase = np.ones((m, n), dtype=complex)
    phase[:, 1:] = np.exp(1j * thetas)

    jac = np.zeros((m, 2 * nm1, n), dtype=complex)
    gap = np.zeros((m, nm1, n))
    for a in range(nm1):
        gap[:, a, a + 1] = 1.0
        for v in range(a + 2, n):
            gap[:, a, v] = gap[:, a, v - 1] * sin[:, v - 1]
    for a in range(nm1):
        for v in range(a + 1, n):
            d = prefix[:, a] * cos[:, a] * gap[:, a, v]
            if v < n - 1:
                d = d * cos[:, v]
            jac[:, a, v] = d * phase[:, v]
        jac[:, a, a] = -prefix[:, a] * sin[:, a] * phase[:, a]
    for a in range(nm1):
        jac[:, nm1 + a, a + 1] = 1j * states[:, a + 1]
    return jac


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_jacobian_matches_two_loop_reference_bitwise(n):
    rng = np.random.default_rng(900 + n)
    shape = (40, n - 1)
    thetas = rng.uniform(-np.pi, np.pi, shape)
    generic = rng.uniform(-np.pi, 2 * np.pi, shape)
    poles = rng.choice([0.0, np.pi / 2, np.pi], size=shape)
    mixed = np.where(rng.random(shape) < 0.5, poles, generic)
    for phis in (generic, poles, mixed):
        angles = np.hstack([phis, thetas])
        _, new = angles_to_states_jacobian(angles)
        ref = _two_loop_jacobian(angles)
        assert np.array_equal(new, ref)
        assert new.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [3, 4, 6])
def test_jacobian_pole_zeros_are_exact(n):
    # phi_a = 0 empties every component after a, so the later polar angles
    # and the phases of those components become redundant: exact zeros
    rng = np.random.default_rng(950 + n)
    nm1 = n - 1
    thetas = rng.uniform(-np.pi, np.pi, (5, nm1))
    for a in range(nm1):
        phis = rng.uniform(0.1, np.pi - 0.1, (5, nm1))
        phis[:, a] = 0.0
        _, jac = angles_to_states_jacobian(np.hstack([phis, thetas]))
        assert np.all(np.isfinite(jac))
        assert np.all(jac[:, a + 1: nm1] == 0.0)
        assert np.all(jac[:, nm1 + a:] == 0.0)
        assert np.all(jac[:, a, a + 1:] != 0.0)
