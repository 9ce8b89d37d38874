import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given
from hypothesis import strategies as st
from rotations import compose_rotation, off_axis_matrix, pushforward_from_axis, rotation_to_axis
from semigroup_reference import metric, mode_norm, spectral_projector

from vpb_spectral import build_basis
from vpb_spectral.collision import STRUCTURE_TOL, assemble_collision, synthetic_collision
from vpb_spectral.errors import AssemblyError, BasisError, RegimeError
from vpb_spectral.mode_operator import EigenBlock, mode_operator
from vpb_spectral.oracles import eigensystem, strip_eigensystem
from vpb_spectral.semigroup import propagate_kinetic
from vpb_spectral.velocity_space import Frame, _gauss_product_rule


@pytest.fixture(scope="module")
def op4(basis_mid):
    return assemble_collision(basis_mid)


def test_mode_matrix_shape_and_rejections(op4):
    mode = mode_operator(op4, 0.2, 0.5)
    assert mode.matrix.shape == (op4.basis.dim, op4.basis.dim)
    assert mode.s == 0.5
    with pytest.raises(RegimeError):
        mode_operator(op4, 0.0, 0.5)
    with pytest.raises(RegimeError):
        mode_operator(op4, 1.0, 0.5)
    with pytest.raises(BasisError):
        mode_operator(op4, 0.2, np.zeros(3))


@given(st.floats(0.01, 0.9), st.floats(0.1, 2.0), st.integers(0, 2 ** 32 - 1))
def test_numerical_range_is_the_collision_form(eps, s, seed):
    basis = build_basis(2)
    op = synthetic_collision(basis)
    mode = mode_operator(op, eps, s)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    diss = mode.dissipation(f)
    assert diss == pytest.approx(float(np.real(np.conj(f) @ (op.matrix @ f))), abs=1e-10)
    assert diss <= 1e-10


def test_adjoint_is_reflected_mode(op4):
    # the mode at -s e1 is the complex conjugate of the one at s e1, and the
    # adjoint in the mode metric
    mode = mode_operator(op4, 0.1, 0.7)
    refl = np.conj(mode.matrix)
    lhs = metric(mode) @ refl
    rhs = (metric(mode) @ mode.matrix).conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert np.max(np.abs(off_axis_matrix(op4, 0.1, [-0.7, 0.0, 0.0]) - refl)) == 0.0


def test_eigensystem_is_decomposed_once(op4):
    mode = mode_operator(op4, 0.1, 0.7)
    vals, vecs = eigensystem(mode)
    again = eigensystem(mode)
    assert again[0] is vals and again[1] is vecs
    assert not vals.flags.writeable and not vecs.flags.writeable
    # the cached pair is the direct decomposition of the mode matrix
    ref_vals = scipy.linalg.eigvals(np.array(mode.matrix))
    assert np.max(np.min(np.abs(ref_vals[:, None] - vals[None, :]), axis=1)) <= 1e-12
    resid = np.max(np.abs(mode.matrix @ vecs - vecs * vals))
    assert resid <= 1e-10 * np.max(np.abs(mode.matrix))


def test_strip_eigenvalues_structure(op4):
    mode = mode_operator(op4, 0.1, 0.7)
    vals, vecs = strip_eigensystem(mode)
    assert vals.shape == (5,)
    assert np.all(vals.real < 0)
    assert np.all(vals.real > -0.3 * op4.spectral_gap())
    # reflection symmetry of the axis mode forces a conjugation-symmetric set
    reals = np.sort(vals[np.abs(vals.imag) < 1e-10].real)
    pair = vals[np.abs(vals.imag) >= 1e-10]
    assert reals.size == 3 and pair.size == 2
    assert pair[0] == pytest.approx(np.conj(pair[1]), abs=1e-12)
    # the two shear branches are exactly degenerate
    assert reals[0] == pytest.approx(reals[1], rel=1e-8) or \
        reals[1] == pytest.approx(reals[2], rel=1e-8)
    # residuals certify genuine eigenpairs
    for k in range(5):
        r = mode.matrix @ vecs[:, k] - vals[k] * vecs[:, k]
        assert np.linalg.norm(r) < 1e-11


def test_spectral_projector(op4):
    mode = mode_operator(op4, 0.15, 0.5)
    vals, vecs = strip_eigensystem(mode)
    proj = spectral_projector(mode, vecs)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10
    assert np.trace(proj).real == pytest.approx(5.0, abs=1e-10)
    assert np.max(np.abs(proj @ mode.matrix - mode.matrix @ proj)) < 1e-10
    # pairing-orthogonality between distinct eigenvalues
    for i in range(5):
        for j in range(5):
            if abs(vals[i] - vals[j]) > 1e-6:
                assert abs(mode.pair(vecs[:, i], vecs[:, j])) < 1e-9


def test_regime_error_outside_strip(basis_small):
    op = synthetic_collision(basis_small)
    with pytest.raises(RegimeError):
        strip_eigensystem(mode_operator(op, 0.9, 8.0))
    with pytest.raises(BasisError):
        strip_eigensystem(mode_operator(op, 0.2, 0.5), fraction=1.5)


@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
def test_rotation_to_axis(x, y, z):
    d = np.array([x, y, z])
    n = np.linalg.norm(d)
    if n < 1e-3:
        return
    d = d / n
    rot = rotation_to_axis(d)
    assert np.allclose(rot @ d, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)


def test_rotation_invariance_of_collision(op4):
    d = np.array([2.0, -1.0, 2.0]) / 3.0
    t = compose_rotation(op4.basis, rotation_to_axis(d))
    assert np.max(np.abs(t @ t.T - np.eye(op4.basis.dim))) < 1e-12
    assert np.max(np.abs(t @ op4.matrix @ t.T - op4.matrix)) < 1e-11


@pytest.mark.parametrize("deg", range(2, 9))
def test_compose_rotation_matches_a_finer_rule(deg):
    # the integrands have degree 2N, so the basis's (N+1)^3 rule gives what
    # the same product gives on a (2N+4)^3 rule; the second direction has
    # d1 < 0, where rotation_to_axis takes its half-turn first
    basis = build_basis(deg)
    nodes, weights = _gauss_product_rule(2 * deg + 4)
    for d in (np.array([2.0, -1.0, 2.0]) / 3.0, np.array([-0.48, 0.6, -0.64])):
        rot = rotation_to_axis(d)
        fine = basis.poly_values(nodes).T @ (weights[:, None] * basis.poly_values(nodes @ rot.T))
        t = compose_rotation(basis, rot)
        assert np.max(np.abs(t - fine)) <= 1e-13
        assert np.max(np.abs(t @ t.T - np.eye(basis.dim))) <= 1e-13


def test_axis_reduction_intertwines(op4):
    d = np.array([0.48, -0.6, 0.64])
    d /= np.linalg.norm(d)
    t = pushforward_from_axis(op4.basis, d)
    axis = mode_operator(op4, 0.1, 0.7)
    tilted = off_axis_matrix(op4, 0.1, 0.7 * d)
    assert np.max(np.abs(tilted @ t - t @ axis.matrix)) < 1e-12
    v_axis = strip_eigensystem(axis)[0]
    v_tilt = scipy.linalg.eigvals(tilted)
    v_tilt = v_tilt[v_tilt.real > -0.3 * op4.spectral_gap()]
    assert v_tilt.size == 5
    # pair by optimal assignment: sorting splits the acoustic pair on the last
    # bits of its (equal) real parts
    cost = np.abs(v_axis[:, None] - v_tilt[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= 1e-11


def test_metric_matches_weighted_inner(op4):
    mode = mode_operator(op4, 0.3, 0.9)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(op4.basis.dim) + 1j * rng.standard_normal(op4.basis.dim)
    g = rng.standard_normal(op4.basis.dim)
    assert mode.inner(f, g) == pytest.approx(complex(np.conj(g) @ (metric(mode) @ f)), abs=1e-12)


def _scaled(mode):
    scale = mode.basis.axis_sectors.scale
    return scale.conj()[:, None] * mode.matrix * scale[None, :]


def test_parity_classes(basis_prod, parity_blocks):
    blocks = parity_blocks(basis_prod)
    assert [idx.size for idx in blocks] == [30, 20, 20, 14]
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(basis_prod.dim))
    sectors = basis_prod.axis_sectors
    for k, idx in enumerate(blocks):
        for i in idx:
            a1, a2, a3 = basis_prod.multi_indices[i]
            assert (a2 % 2, a3 % 2) == divmod(k, 2)
            assert sectors.scale[i] == (1j if a1 % 2 else 1.0)
    # every sector copy lies on one class and carries its slots' scale
    for copies in sectors.frames:
        for fr in copies:
            assert any(np.array_equal(fr.index, idx) for idx in blocks)
            assert np.array_equal(fr.scale, sectors.scale[fr.index])


@pytest.mark.parametrize("name", ["synthetic-4", "synthetic-6", "hard-sphere-4"])
def test_axis_mode_is_real_and_block_diagonal(axis_operators, parity_blocks, name):
    mode = mode_operator(axis_operators[name], 0.1, 0.4)
    scaled = _scaled(mode)
    cross = np.abs(scaled)
    for idx in parity_blocks(mode.basis):
        cross[np.ix_(idx, idx)] = 0.0
    # exact on the synthetic operator; quadrature round-off on hard sphere
    bound = 0.0 if name.startswith("synthetic") else 1e-13 * np.max(np.abs(mode.matrix))
    assert np.max(np.abs(scaled.imag)) <= bound
    assert np.max(cross) <= bound
    assert len(mode.eigen_blocks()) == mode.basis.max_degree + 1


@pytest.mark.parametrize("name", ["hard-sphere-4", "hard-sphere-6"])
def test_hard_sphere_axis_mode_blocks_are_exact(axis_operators, hard_sphere_prod,
                                                parity_blocks, name):
    # the reflection-folded assembly leaves exact zeros between parity classes
    op = hard_sphere_prod if name == "hard-sphere-6" else axis_operators[name]
    mode = mode_operator(op, 0.1, 0.4)
    scaled = _scaled(mode)
    cross = np.abs(scaled)
    for idx in parity_blocks(mode.basis):
        cross[np.ix_(idx, idx)] = 0.0
    assert np.max(np.abs(scaled.imag)) == 0.0
    assert np.max(cross) == 0.0
    assert len(mode.eigen_blocks()) == mode.basis.max_degree + 1


@pytest.mark.parametrize("name", ["synthetic-6", "hard-sphere-4"])
def test_block_cond_and_coefficients_come_from_one_lu(axis_operators, name):
    mode = mode_operator(axis_operators[name], 0.1, 0.4)
    rng = np.random.default_rng(3)
    for block in mode.eigen_blocks():
        # the exact 1-norm condition number, from the one inverse of vecs
        exact = np.linalg.cond(block.vecs, 1)
        assert block.cond == pytest.approx(exact, rel=1e-12)
        g = rng.standard_normal(block.vals.size) + 1j * rng.standard_normal(block.vals.size)
        c = block.coefficients(g)
        assert np.max(np.abs(c - np.linalg.solve(block.vecs, g))) <= 1e-12 * np.max(np.abs(c))


@pytest.mark.parametrize("name", ["synthetic-6", "hard-sphere-4"])
def test_block_cond_is_the_1_norm_product_exactly(axis_operators, name):
    # the stack-ready column-sum form gives np.linalg.norm's bits on one block
    for block in mode_operator(axis_operators[name], 0.1, 0.4).eigen_blocks():
        inv = np.linalg.inv(block.vecs)
        assert block.cond == np.linalg.norm(block.vecs, 1) * np.linalg.norm(inv, 1)


def test_singular_eigenvectors_have_infinite_cond(monkeypatch):
    vecs = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    monkeypatch.setattr(np.linalg, "eig", lambda a: (np.zeros(2, dtype=complex), vecs))
    block = EigenBlock(np.zeros((2, 2)), (Frame(np.arange(2), np.ones(2), np.eye(2)),))
    assert block.cond == np.inf
    with pytest.raises(RegimeError, match="singular"):
        block.coefficients(np.ones(2))


def test_nan_mode_matrix_is_a_typed_error(op4):
    radial = np.array(op4.radial)
    radial[2, 0, 1] = np.nan
    radial.setflags(write=False)
    poisoned = dataclasses.replace(op4, radial=radial)
    with pytest.raises(AssemblyError, match="sector check"):
        eigensystem(mode_operator(poisoned, 0.1, 0.4))


def test_nan_operator_is_refused_as_non_finite(op4):
    # finiteness is checked first: a NaN is not reported as an imaginary-part ratio
    radial = np.array(op4.radial)
    radial[2, 0, 1] = np.nan
    with pytest.raises(AssemblyError, match="collision matrix has non-finite entries") as info:
        dataclasses.replace(op4, radial=radial).sector_blocks
    assert "imaginary" not in str(info.value)


def _streaming_failure(check_fails, op) -> str:
    """The FAIL line of check's streaming step on op, which must fail check."""
    code, fails = check_fails(op)
    assert code == 1
    (line,) = [f for f in fails if f.startswith("FAIL streaming blocks: ")]
    return line


def test_non_finite_frames_are_refused_as_non_finite(broken_frames, check_fails):
    # the jobs read the streaming blocks off the labels; check's dense
    # reference refuses the frames with a NaN ratio, not a plausible one
    line = _streaming_failure(check_fails, broken_frames("non-finite"))
    assert " by nan times STRUCTURE_TOL" in line


def test_frames_without_the_parity_scale_fail_only_the_streaming_check(broken_frames,
                                                                         check_fails):
    # the frames stay orthonormal and match their quadrature projection, so
    # only the dense reference sees the a1-odd slot without its factor i
    code, fails = check_fails(broken_frames("imaginary part"))
    assert code == 1
    assert [f.split(":")[0] for f in fails] == ["FAIL streaming blocks"]
    assert "times STRUCTURE_TOL" in fails[0]


@pytest.mark.parametrize("name", ["synthetic-6", "hard-sphere-4"])
def test_negative_axis_mode_matches_its_dense_matrix(axis_operators, name):
    # the sector blocks against the dense matrix, eig and expm; the mode at
    # -s e1 is its complex conjugate (test_adjoint_is_reflected_mode)
    mode = mode_operator(axis_operators[name], 0.1, np.array([0.5, 0.0, 0.0]))
    assert len(mode.eigen_blocks()) == mode.basis.max_degree + 1
    vals, vecs = eigensystem(mode)
    dense = np.linalg.eigvals(np.array(mode.matrix))
    cost = np.abs(vals[:, None] - dense[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    scale = np.max(np.abs(mode.matrix))
    assert np.max(cost[rows, cols]) <= 1e-12 * scale
    assert np.max(np.abs(mode.matrix @ vecs - vecs * vals)) <= 1e-12 * scale
    f0 = np.random.default_rng(5).standard_normal(mode.basis.dim).astype(complex)
    times = np.array([0.0, 0.01, 0.05, 0.2])
    traj = propagate_kinetic(mode, f0, times)
    exact = [scipy.linalg.expm(t / mode.eps ** 2 * np.array(mode.matrix)) @ f0 for t in times]
    gap = max(mode_norm(mode, a - b) for a, b in zip(traj.states, exact))
    assert gap <= 1e-10 * mode_norm(mode, f0)


@pytest.mark.parametrize("name", ["synthetic-4", "synthetic-6", "hard-sphere-4"])
@given(s=st.floats(0.05, 0.6), eps=st.floats(0.02, 0.3))
def test_block_eigenvalues_match_dense(axis_operators, name, s, eps):
    mode = mode_operator(axis_operators[name], eps, s)
    vals, vecs = eigensystem(mode)
    dense = scipy.linalg.eigvals(np.array(mode.matrix))
    cost = np.abs(vals[:, None] - dense[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    scale = np.max(np.abs(mode.matrix))
    assert np.max(cost[rows, cols]) <= 1e-12 * scale
    assert np.max(np.abs(mode.matrix @ vecs - vecs * vals)) <= 1e-12 * scale


@pytest.mark.parametrize("s, eps", [(0.1, 0.025), (0.35, 0.1), (0.6, 0.3)])
def test_block_eigenvalues_against_40_digits(basis_mid, s, eps):
    """Each sector block's five slowest eigenvalues lie within round-off of a
    40-digit eig of that block, and real ones come out exactly real."""
    mpmath = pytest.importorskip("mpmath")
    mode = mode_operator(synthetic_collision(basis_mid), eps, s)
    bound = 8 * np.finfo(float).eps * np.max(np.abs(mode.matrix))
    with mpmath.workdps(40):
        for block in mode.eigen_blocks():
            ref, _ = mpmath.eig(mpmath.matrix(block.matrix.tolist()))
            for z in sorted(ref, key=lambda z: -mpmath.re(z))[:5]:
                err = min(float(abs(mpmath.mpc(v) - z)) for v in block.vals)
                assert err <= bound
                if abs(mpmath.im(z)) < 1e-30:
                    nearest = block.vals[np.argmin(np.abs(block.vals - complex(z)))]
                    assert nearest.imag == 0.0


@pytest.mark.parametrize("name", ["synthetic-4", "synthetic-6", "hard-sphere-4", "hard-sphere-6"])
def test_collision_and_streaming_do_not_couple_sectors(axis_operators, hard_sphere_prod, name):
    op = hard_sphere_prod if name == "hard-sphere-6" else axis_operators[name]
    basis = op.basis
    scale = basis.axis_sectors.scale
    t, spans = basis.axis_sectors.transform, basis.axis_sectors.spans
    for mat in (op.matrix, -1j * basis.v1):
        scaled = (scale.conj()[:, None] * mat * scale[None, :]).real
        blocks = t.T @ scaled @ t
        cross = np.abs(blocks)
        for copies in spans:
            for sl in copies:
                cross[sl, sl] = 0.0
        assert np.max(cross) <= STRUCTURE_TOL * np.max(np.abs(blocks))
    assert len(op.sector_blocks.L) == basis.max_degree + 1  # the check passes


def test_frames_coupling_sectors_fail_the_streaming_check(broken_frames, check_fails):
    # 1e-8 of a sector 0 frame column in a sector 2 one: the blocks read off
    # the labels no longer map to the dense streaming matrix
    line = _streaming_failure(check_fails, broken_frames("entry between sectors"))
    ratio = float(line.split(" by ")[1].split()[0])
    assert 1e3 < ratio < 1e6  # 1e-8 of an O(1) entry, against STRUCTURE_TOL = 1e-13


def test_sector_copy_mismatch_is_refused(broken_frames, check_fails):
    # one cos-copy column of sector 1 with the wrong sign: the cos copy no
    # longer carries the block that the labels give both copies
    line = _streaming_failure(check_fails, broken_frames("cos/sin copy mismatch"))
    assert "times STRUCTURE_TOL" in line
