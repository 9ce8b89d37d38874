"""Kinetic propagation, hydrodynamic splitting, fluid semigroup, decay fits.

Frozen oracle values (scripts/oracle_semigroup.py, raw eigendecomposition
over a 64-node radial grid):
    density-carrying packet macro rate  0.2516
    density-free packet macro rate      0.7635
    micro eps-prefactor slope           0.9959
"""

import dataclasses
import math

import numpy as np
import pytest
import mpmath
import scipy.linalg
from hypothesis import given, strategies as st
from oracles import (eigensystem, fit_decay, mode_blocks, mode_operator,
                     propagate_kinetic, split_S1_S2)
from radau import ode_states
from semigroup_reference import (closed_fluid_forms, constraint_residuals,
                                 hydrodynamic_projector, mode_norm, packet_norms)

from vpb_spectral import semigroup
from vpb_spectral.checks import fluid_semigroup_V, nspf_mode_solve
from vpb_spectral.collision import assemble_collision, synthetic_collision
from vpb_spectral.dispersion import asymptotic_coefficients, hydrodynamic_sweep
from vpb_spectral.errors import AssemblyError, BasisError, DataError, FitError
from vpb_spectral.limit_lab import layer_time_grid
from vpb_spectral.mode_operator import EigenBlock, axis_eigen_blocks
from vpb_spectral.semigroup import hydrodynamic_part, member_states, propagate_axis_modes
from vpb_spectral.transport import compute_kappas
from vpb_spectral.velocity_space import (
    Frame,
    MacroState,
    build_basis,
    macro_vector,
)


def suggested(basis, coeffs, raw: MacroState, xi) -> MacroState:
    """The moments nspf_mode_solve suggests for raw data that it refuses:
    the fluid semigroup's projection at t = 0."""
    with pytest.raises(DataError) as err:
        nspf_mode_solve(basis, coeffs, raw, None, None, xi, [0.0])
    sug = err.value.suggestion
    return MacroState(n=sug["n_hat"], m=sug["m_hat"], q=sug["q_hat"])


@pytest.fixture(scope="module")
def op_mid():
    return assemble_collision(build_basis(4))


@pytest.fixture(scope="module")
def coeffs_mid(op_mid):
    return compute_kappas(op_mid)


@pytest.fixture(scope="module")
def syn_small():
    return synthetic_collision(build_basis(3))


@pytest.fixture(scope="module")
def mode_mid(op_mid):
    return mode_operator(op_mid, 0.1, np.array([0.5, 0.0, 0.0]))


@pytest.fixture(scope="module")
def points_mid(op_mid):
    return hydrodynamic_sweep(op_mid, [(0.1, 0.5)])[0]


def random_state(dim: int, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


class TestPropagateKinetic:
    def test_identity_at_zero(self, mode_mid):
        f0 = random_state(mode_mid.basis.dim)
        traj = propagate_kinetic(mode_mid, f0, [0.0])
        assert np.max(np.abs(traj.states[0] - f0)) < 1e-13

    def test_eigendecomposition_vs_ode_oracle(self, mode_mid):
        f0 = random_state(mode_mid.basis.dim)
        times = np.array([0.0, 0.002, 0.01, 0.05, 0.2])
        traj = propagate_kinetic(mode_mid, f0, times)
        assert traj.method == "eig"
        ref = ode_states(mode_mid, f0, times)
        gap = max(mode_norm(mode_mid, traj.states[i] - ref[i]) for i in range(times.size))
        assert gap < 1e-7

    def test_block_exponential_vs_ode_oracle(self, mode_mid, monkeypatch):
        monkeypatch.setattr(semigroup, "COND_LIMIT", 0.0)
        f0 = random_state(mode_mid.basis.dim)
        times = np.array([0.0, 0.002, 0.01, 0.05, 0.2])
        traj = propagate_kinetic(mode_mid, f0, times)
        assert traj.method == "expm"
        ref = ode_states(mode_mid, f0, times)
        gap = max(mode_norm(mode_mid, traj.states[i] - ref[i]) for i in range(times.size))
        assert gap < 1e-7

    def test_branch_eigenfunction_evolves_by_phase(self, mode_mid, points_mid):
        for bp in points_mid:
            traj = propagate_kinetic(mode_mid, bp.psi, [0.3])
            pred = np.exp(0.3 * bp.lam / mode_mid.eps ** 2) * bp.psi
            assert mode_norm(mode_mid, traj.states[0] - pred) < 1e-8

    def test_contraction(self, mode_mid):
        f0 = random_state(mode_mid.basis.dim, seed=11)
        times = np.linspace(0.0, 0.4, 13)
        traj = propagate_kinetic(mode_mid, f0, times)
        assert np.all(np.diff(traj.norm_track) <= 1e-9 * traj.norm_track[0])

    def test_rejects_bad_time_grid(self, mode_mid):
        f0 = random_state(mode_mid.basis.dim)
        with pytest.raises(DataError):
            propagate_kinetic(mode_mid, f0, [0.2, 0.1])
        with pytest.raises(DataError):
            propagate_kinetic(mode_mid, f0, [-0.1, 0.2])

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_times(self, mode_mid, t):
        # every comparison with NaN is false: without a finiteness test the
        # eig path returned all-NaN states under method "eig"
        with pytest.raises(DataError, match="finite"):
            propagate_kinetic(mode_mid, random_state(mode_mid.basis.dim), [t])

    @given(seed=st.integers(0, 2 ** 16))
    def test_semigroup_property(self, syn_small, seed):
        mode = mode_operator(syn_small, 0.2, np.array([0.4, 0.0, 0.0]))
        f0 = random_state(syn_small.basis.dim, seed=seed)
        first = propagate_kinetic(mode, f0, [0.03]).states[0]
        chained = propagate_kinetic(mode, first, [0.04]).states[0]
        direct = propagate_kinetic(mode, f0, [0.07]).states[0]
        assert mode_norm(mode, chained - direct) < 1e-9 * max(1.0, mode_norm(mode, f0))


class TestParityBlocks:
    @pytest.mark.parametrize("name", ["synthetic-4", "synthetic-6", "hard-sphere-4"])
    @given(s=st.floats(0.05, 0.6), eps=st.floats(0.02, 0.3),
           seed=st.integers(0, 2 ** 16))
    def test_blocks_propagate_like_the_dense_path(self, axis_operators, name, s, eps, seed):
        mode = mode_operator(axis_operators[name], eps, s)
        f0 = random_state(mode.basis.dim, seed=seed)
        times = eps ** 2 * np.linspace(0.0, 50.0, 6)
        traj = propagate_kinetic(mode, f0, times)
        assert traj.method == "eig" and len(mode_blocks(mode)) == mode.basis.max_degree + 1
        vals, vecs = scipy.linalg.eig(np.array(mode.matrix))
        dense = np.exp(np.outer(times, vals) / eps ** 2) \
            * np.linalg.solve(vecs, f0)[None, :] @ vecs.T
        gap = max(mode_norm(mode, a - b) for a, b in zip(traj.states, dense))
        assert gap <= 1e-10 * mode_norm(mode, f0)

    def test_only_blocks_holding_data_are_solved(self, hard_sphere_prod, parity_blocks,
                                                  monkeypatch):
        # macro data lies in the m = 0 sector and both copies of m = 1: those
        # two blocks are decomposed, once each, and the (odd, odd) class,
        # which holds only sin copies of even m >= 2, is never touched
        mode = mode_operator(hard_sphere_prod, 0.1, np.array([0.5, 0.0, 0.0]))
        sizes = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: sizes.append(a) or eig(a))
        f0 = macro_vector(mode.basis, 0.3, [0.2, -0.5, 0.1], -0.7).astype(complex)
        traj = propagate_kinetic(mode, f0, [0.0, 0.1])
        assert [a.shape[-1] for a in sizes] == [16, 12]
        assert np.all(traj.states[:, parity_blocks(mode.basis)[3]] == 0.0)

    def test_tiny_cond_limit_takes_expm(self, mode_mid, monkeypatch):
        monkeypatch.setattr(semigroup, "COND_LIMIT", 1.0)
        traj = propagate_kinetic(mode_mid, random_state(mode_mid.basis.dim),
                                 [0.0, 0.01, 0.05])
        assert traj.method == "expm"


def same_coordinates(got, want, member=None):
    """Bitwise equality of two sector coordinate nestings, of one member only if given."""
    assert len(got) == len(want)
    for xs, ys in zip(got, want):
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert (x is None) == (y is None)
            if x is not None:
                assert np.array_equal(x if member is None else x[member],
                                      y if member is None else y[member])


def shells_data(basis, data):
    """propagate_axis_modes' g for the data rows data[k], one per shell,
    taken row by row, as propagate_kinetic takes it."""
    rows = [basis.axis_sectors.coordinates(f) for f in np.asarray(data, dtype=complex)]
    return [[np.stack([r[m][j] for r in rows]) for j in range(len(xs))]
            for m, xs in enumerate(rows[0])]


class TestStackedPropagation:
    EPS = [0.2, 0.1, 0.05, 0.025]

    @pytest.mark.parametrize("t", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_times(self, syn_small, t):
        g = shells_data(syn_small.basis, [random_state(syn_small.basis.dim)])
        with pytest.raises(DataError, match="finite"):
            propagate_axis_modes(syn_small, self.EPS, [0.3], g, [t])

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_coordinates(self, bad):
        # one bad slot of synthetic degree-3 data gave NaN states, no error
        op = synthetic_collision(build_basis(3))
        f0 = random_state(op.basis.dim)
        f0[4] = bad
        with np.errstate(invalid="ignore"):
            g = shells_data(op.basis, [f0])
        with pytest.raises(DataError, match="finite sector coordinates"):
            propagate_axis_modes(op, [0.1], [0.5], g, [0.0, 1.0])

    @pytest.mark.parametrize("name", ["synthetic-4", "synthetic-6", "hard-sphere-4",
                                      "hard-sphere-6"])
    def test_each_member_is_its_own_propagation(self, axis_operators, hard_sphere_prod,
                                                name):
        # one stack over two shells, each with its own data: every (shell, eps)
        # member is its own propagate_kinetic, bit for bit
        op = hard_sphere_prod if name == "hard-sphere-6" else axis_operators[name]
        shells = [0.05, 0.37]
        data = [random_state(op.basis.dim, seed=11), random_state(op.basis.dim, seed=12)]
        times = layer_time_grid(max(self.EPS), 5.0, n_layer=4, n_bulk=6)
        coords, _ = propagate_axis_modes(op, self.EPS, shells, shells_data(op.basis, data), times)
        for xs, copies in zip(coords, op.basis.axis_sectors.frames):
            for x, fr in zip(xs, copies):
                assert x.shape == (len(shells), len(self.EPS), times.size, fr.basis.shape[1])
        for k, s in enumerate(shells):
            for e, eps in enumerate(self.EPS):
                want = propagate_kinetic(mode_operator(op, eps, np.array([s, 0.0, 0.0])),
                                         data[k], times).states
                assert np.array_equal(member_states(op.basis, coords, (k, e), times), want)

    def test_members_without_data_hold_exact_zeros(self, op_mid, monkeypatch):
        # a shell whose data is zero, or fills one copy of a sector whose other
        # copy holds data elsewhere, inside a stack: its members are never
        # refused for copies without data (their solve residual would be 0/0),
        # and hold exact zeros there
        basis, times = op_mid.basis, np.array([0.0, 0.002, 0.01])
        shells = [0.3, 0.4, 0.5]
        data = [random_state(basis.dim, seed=13), np.zeros(basis.dim),
                0.7 * basis.chi(2)]  # the cos copy of sector 1 only
        g = shells_data(basis, data)
        coords, _ = propagate_axis_modes(op_mid, self.EPS, shells, g, times)
        for m, xs in enumerate(coords):
            for j, x in enumerate(xs):
                assert np.all(x[1] == 0.0)
                assert np.all(x[2] == 0.0) == ((m, j) != (1, 0))
        for k, s in enumerate(shells):
            for e, eps in enumerate(self.EPS):
                want = propagate_kinetic(mode_operator(op_mid, eps, np.array([s, 0.0, 0.0])),
                                         data[k], times).states
                assert np.array_equal(member_states(basis, coords, (k, e), times), want)
        # with every cond refused, only the members with data are refused,
        # and the others still hold exact zeros
        monkeypatch.setattr(semigroup, "COND_LIMIT", 0.0)
        coords, refused = propagate_axis_modes(op_mid, self.EPS[:2], shells, g, times)
        assert np.array_equal(refused, [[True] * 2, [False] * 2, [True] * 2])
        assert all(np.all(x[1] == 0.0) for xs in coords for x in xs if x is not None)

    def test_stacked_block_attributes_are_the_members(self, axis_operators):
        op = axis_operators["hard-sphere-4"]
        s = np.array([[0.3], [0.45]])
        held = [True] * len(op.basis.axis_sectors.frames)
        blocks = tuple(axis_eigen_blocks(op, s * np.array(self.EPS), s, held))
        for k, e in np.ndindex(len(s), len(self.EPS)):
            one = mode_blocks(mode_operator(op, self.EPS[e], np.array([s[k, 0], 0.0, 0.0])))
            assert len(blocks) == len(one)
            for stacked, block in zip(blocks, one):
                assert np.array_equal(stacked.matrix[k, e], block.matrix)
                assert np.array_equal(stacked.vecs[k, e], block.vecs)
                assert stacked.cond[k, e] == block.cond
                assert stacked.residual[k, e] == block.residual

    def test_only_the_sectors_asked_for_are_formed(self, op_mid):
        held = [m in (0, 2) for m in range(len(op_mid.basis.axis_sectors.frames))]
        blocks = list(axis_eigen_blocks(op_mid, np.array([0.02, 0.04]),
                                        np.array([0.2, 0.4]), held))
        assert [b is not None for b in blocks] == held
        assert blocks[0].matrix.shape[0] == 2

    def test_one_singular_member_is_integrated_alone(self, op_mid, monkeypatch):
        # the singular member is refused in that block alone: there it takes
        # the block exponential, as propagate_kinetic does, and elsewhere, as
        # every other member everywhere, its eigen-expansion
        s, times = 0.4, np.array([0.0, 0.002, 0.01])
        f0 = random_state(op_mid.basis.dim, seed=5)
        shell = shells_data(op_mid.basis, [f0])
        want, _ = propagate_axis_modes(op_mid, self.EPS, [s], shell, times)
        eig = np.linalg.eig

        def spoiled(a):
            # member (0, 1) of the stack of four eps, and the one mode's own
            # stack of one, exactly singular: the stacked inv fails
            vals, vecs = eig(a)
            if a.shape[-1] > 1:
                vecs = np.array(vecs)
                vecs[(0, 1) if a.shape[1] > 1 else (0, 0)][:, 0] = 0.0
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eig", spoiled)
        got, refused = propagate_axis_modes(op_mid, self.EPS, [s], shell, times)
        mode = mode_operator(op_mid, self.EPS[1], np.array([s, 0.0, 0.0]))
        traj = propagate_kinetic(mode, f0, times)
        assert traj.method == "expm" and np.array_equal(refused, [[False, True, False, False]])
        assert np.array_equal(member_states(op_mid.basis, got, (0, 1), times), traj.states)
        for e in (0, 2, 3):
            same_coordinates(got, want, (0, e))

    def test_cond_limit_sends_only_its_members_to_expm(self, op_mid, monkeypatch):
        s, times = 0.4, np.array([0.0, 0.002, 0.01])
        f0 = random_state(op_mid.basis.dim, seed=7)
        shell = shells_data(op_mid.basis, [f0])
        want, _ = propagate_axis_modes(op_mid, self.EPS, [s], shell, times)
        held = [True] * len(op_mid.basis.axis_sectors.frames)  # f0 fills every sector
        blocks = axis_eigen_blocks(op_mid, np.array([eps * s for eps in self.EPS]), s, held)
        worst = np.max([b.cond for b in blocks], axis=0)
        limit = np.sort(worst)[1:3].mean()
        monkeypatch.setattr(semigroup, "COND_LIMIT", limit)
        got, refused = propagate_axis_modes(op_mid, self.EPS, [s], shell, times)
        assert np.array_equal(refused, [worst >= limit])
        for e, eps in enumerate(self.EPS):
            traj = propagate_kinetic(mode_operator(op_mid, eps, np.array([s, 0.0, 0.0])), f0,
                                     times)
            assert traj.method == ("expm" if worst[e] >= limit else "eig")
            assert np.array_equal(member_states(op_mid.basis, got, (0, e), times), traj.states)
            if worst[e] < limit:
                same_coordinates(got, want, (0, e))
        assert 0 < np.sum(worst >= limit) < len(self.EPS)

    def test_bad_operator_wavenumber_and_failed_eig_are_refused(self, op_mid, monkeypatch):
        # a bad operator here is a non-finite one; frames that break the
        # streaming blocks fail check instead (test_mode_operator)
        f0 = [random_state(op_mid.basis.dim)]
        radial = np.array(op_mid.radial)
        radial[2, 0, 1] = np.nan
        with pytest.raises(AssemblyError, match="non-finite entries; it fails the axis sector"):
            propagate_axis_modes(dataclasses.replace(op_mid, radial=radial), self.EPS, [0.3],
                                 shells_data(op_mid.basis, f0), [0.0, 0.01])
        with pytest.raises(BasisError, match="nonzero"):
            propagate_axis_modes(op_mid, self.EPS, [0.3, 0.0],
                                 shells_data(op_mid.basis, f0 * 2), [0.0, 0.01])
        for bad in (math.nan, math.inf, -0.3):
            with pytest.raises(BasisError, match="positive and finite"):
                propagate_axis_modes(op_mid, self.EPS, [0.3, bad],
                                     shells_data(op_mid.basis, f0 * 2), [0.0, 0.01])

        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing)
        with pytest.raises(AssemblyError, match="eigendecomposition of a 9-row block failed"):
            propagate_axis_modes(op_mid, self.EPS, [0.3], shells_data(op_mid.basis, f0),
                                 [0.0, 0.01])

    def test_perturbed_eigenvectors_take_expm(self, op_mid, monkeypatch):
        # vectors off by 1e-6 at cond below 100 pass COND_LIMIT by ten
        # orders; only the eigenpair residual sees them
        mode = mode_operator(op_mid, 0.1, np.array([0.5, 0.0, 0.0]))
        blocks = mode_blocks(mode)
        rng = np.random.default_rng(2)
        eig = np.linalg.eig

        def perturbed(a):
            vals, vecs = eig(a)
            return vals, vecs + 1e-6 * rng.standard_normal(vecs.shape)

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        # data in the blocks of more than one row: a 1-row block's eigenvector
        # is exact however it is scaled
        f0 = np.zeros(mode.basis.dim, dtype=complex)
        for b in blocks:
            for fr in b.frames if b.matrix.shape[-1] > 1 else ():
                f0[fr.index] += fr.scale * (fr.basis @ random_state(fr.basis.shape[1]))
        times = np.array([0.0, 0.002, 0.01])
        traj = propagate_kinetic(mode, f0, times)
        assert all(b.cond < 100.0 for b in blocks)
        assert max(b.residual for b in blocks) > 1e-8
        assert traj.method == "expm"
        monkeypatch.setattr(np.linalg, "eig", eig)
        monkeypatch.setattr(semigroup, "COND_LIMIT", 0.0)  # every block refused
        fresh = mode_operator(op_mid, 0.1, np.array([0.5, 0.0, 0.0]))
        assert np.array_equal(traj.states, propagate_kinetic(fresh, f0, times).states)

    def test_exact_eigenpairs_at_cond_1e11_pass_only_within_the_bound(self, monkeypatch):
        # B v = lambda v holds exactly in floating point for these pairs, and
        # cond_1(V) = 2 / delta = 1.5e11 stays below COND_LIMIT
        delta = 2.0 ** -37
        vals = np.array([-1.0, -0.5], dtype=complex)
        vecs = np.array([[1.0, 1.0], [0.0, delta]], dtype=complex)
        mat = np.array([[-1.0, 0.5 / delta], [0.0, -0.5]])
        monkeypatch.setattr(np.linalg, "eig", lambda a: (vals, vecs))
        frame = Frame(np.arange(2), np.ones(2), np.eye(2))
        times = np.array([0.0, 0.5])
        for g0, refused in (([1.0, 0.0], False), ([0.1, 0.3], True)):
            block = EigenBlock(mat, (frame,))
            assert 1e11 < block.cond < semigroup.COND_LIMIT and block.residual == 0.0
            g0 = np.array(g0, dtype=complex)
            coords, bad = semigroup._eig_coordinates([block], [[g0]], times, np.array(1.0))
            assert bad == refused
            assert np.array_equal(coords[0][0][0], g0)  # both paths are exact at t = 0


class TestBlockExponential:
    """The kernel's path for a member it refuses the eig path: e^{(t/eps^2) A}
    on the real sector block A."""

    def test_near_defective_block_matches_40_digits(self):
        # eigenvalues -1 and -1 - delta with eigenvectors (1, 0) and (1, -delta):
        # cond_1 about 2 / delta, past COND_LIMIT.  The error grows like
        # (t/eps^2) ||A||_1 u: 2.2e-15 at t/eps^2 = 30, 1e-14 at 120
        delta = 1e-14
        mat = np.array([[-1.0, 1.0], [0.0, -1.0 - delta]])
        block = EigenBlock(mat, (Frame(np.arange(2), np.ones(2), np.eye(2)),))
        assert block.cond >= semigroup.COND_LIMIT
        g0 = np.array([0.3 - 0.2j, 0.7 + 0.1j])
        times, eps2 = np.array([0.0, 0.01, 0.3, 2.0, 9.0, 30.0]), 1.0
        coords, refused = semigroup._eig_coordinates([block], [[g0]], times, np.array(eps2))
        assert refused
        with mpmath.workdps(40):
            a, g = mpmath.matrix(mat.tolist()), mpmath.matrix(g0.tolist())
            for t, x in zip(times, coords[0][0]):
                want = np.array((mpmath.expm(a * (mpmath.mpf(t) / eps2)) * g).tolist(),
                                dtype=complex).ravel()
                assert np.abs(x - want).sum() <= 1e-14 * np.abs(want).sum()

    @pytest.mark.parametrize("name", ["synthetic-6", "hard-sphere-6"])
    def test_every_member_refused_matches_the_eig_path(self, synthetic_prod,
                                                       hard_sphere_prod, monkeypatch, name):
        # on the converge benchmark's time grid, where t/eps^2 reaches 3.2e4;
        # both paths' errors grow like (t/eps^2) ||A||_1 u there
        op = synthetic_prod if name == "synthetic-6" else hard_sphere_prod
        shells, times = [0.05, 0.37, 0.6], layer_time_grid(0.2, 20.0, 12, 24)
        g = shells_data(op.basis, [random_state(op.basis.dim, seed=k) for k in (21, 22, 23)])
        want, _ = propagate_axis_modes(op, TestStackedPropagation.EPS, shells, g, times)
        monkeypatch.setattr(semigroup, "COND_LIMIT", 0.0)
        got, refused = propagate_axis_modes(op, TestStackedPropagation.EPS, shells, g, times)
        assert refused.all()
        pairs = [(x, y) for xs, ys in zip(want, got) for x, y in zip(xs, ys) if x is not None]
        gap = math.sqrt(sum(np.sum(np.abs(x - y) ** 2) for x, y in pairs))
        assert gap <= 1e-11 * math.sqrt(sum(np.sum(np.abs(x) ** 2) for x, _ in pairs))


class TestSplit:
    def test_reassembly_exact(self, mode_mid):
        f0 = random_state(mode_mid.basis.dim, seed=19)
        times = np.array([0.0, 0.1, 0.3])
        s1, s2 = split_S1_S2(mode_mid, f0, times)
        full = propagate_kinetic(mode_mid, f0, times).states
        assert np.max(np.abs(s1 + s2 - full)) < 1e-12

    def test_pure_branch_has_no_remainder(self, mode_mid, points_mid):
        combo = points_mid[0].psi + 0.5 * points_mid[3].psi
        s1, s2 = split_S1_S2(mode_mid, combo, 0.3, points=points_mid)
        assert mode_norm(mode_mid, s2) < 1e-9

    def test_s1_vanishes_outside_ball(self, op_mid):
        mode = mode_operator(op_mid, 0.5, np.array([1.0, 0.0, 0.0]))
        f0 = random_state(op_mid.basis.dim)
        s1, s2 = split_S1_S2(mode, f0, 0.05)
        assert np.all(s1 == 0.0)
        assert mode_norm(mode, s2) > 0.0

    def test_s2_initial_eps_slope(self, op_mid):
        # macroscopic data: remainder at t = 0 is O(eps |xi|)
        u0 = macro_vector(op_mid.basis, 0.3, [0.2, -0.5, 0.1], -0.7).astype(complex)
        eps_list = [0.2, 0.1, 0.05, 0.025]
        vals = []
        for eps in eps_list:
            mode = mode_operator(op_mid, eps, np.array([0.5, 0.0, 0.0]))
            _, s2 = split_S1_S2(mode, u0, 0.0)
            vals.append(mode_norm(mode, s2) / mode_norm(mode, u0))
        slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
        assert slope >= 0.9

    def test_long_time_tail_rate(self, op_mid):
        eps, s = 0.3, 0.5
        mode = mode_operator(op_mid, eps, np.array([s, 0.0, 0.0]))
        vals = eigensystem(mode)[0]
        outside = vals[vals.real <= -0.3 * op_mid.spectral_gap()]
        d_op = -float(outside.real.max())
        f0 = random_state(op_mid.basis.dim, seed=7)
        times = np.linspace(0.08, 0.22, 10)
        _, s2 = split_S1_S2(mode, f0, times)
        norms = np.array([mode_norm(mode, v) for v in s2])
        fit = fit_decay((times, norms), model="exp")
        assert fit.rate >= 0.95 * d_op / eps ** 2
        assert fit.r_squared >= 0.99

    def test_projector_matches_split(self, mode_mid, points_mid):
        proj = hydrodynamic_projector(mode_mid, points_mid)
        p = proj.matrix
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.linalg.matrix_rank(p, tol=1e-8) == 5
        f0 = random_state(mode_mid.basis.dim, seed=23)
        s1, _ = split_S1_S2(mode_mid, f0, 0.0, points=points_mid)
        assert np.max(np.abs(p @ f0 - s1)) < 1e-10


    @pytest.mark.parametrize("where", ["data", "times"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_data_or_times_are_a_data_error(self, syn_small, where, bad):
        # synthetic degree 3, eps 0.1, s 0.5 with the mode's own branch points:
        # one bad slot of f0, or one bad time, gave a non-finite S1, no error
        eps, s = 0.1, 0.5
        points = hydrodynamic_sweep(syn_small, [(eps, s)])[0]
        f0 = random_state(syn_small.basis.dim)
        times = np.array([0.0, 0.1, 0.3])
        if where == "data":
            f0[4] = bad
        else:
            times[1] = bad
        with pytest.raises(DataError, match="finite"):
            hydrodynamic_part(syn_small.basis, eps, s, f0, times, points)


class TestFluidSemigroup:
    def test_initial_projection_of_single_branch(self, op_mid, coeffs_mid):
        from vpb_spectral.dispersion import asymptotic_coefficients

        basis = op_mid.basis
        xi = np.array([0.5, 0.0, 0.0])
        bundle = asymptotic_coefficients(basis, xi, coeffs_mid)
        traj = fluid_semigroup_V(basis, coeffs_mid, bundle.h[0], xi, [0.0])
        assert np.max(np.abs(traj.states[0] - bundle.h[0])) < 1e-12

    def test_transverse_momentum_exact_decay(self, op_mid, coeffs_mid):
        basis = op_mid.basis
        xi = np.array([0.5, 0.0, 0.0])
        u0 = MacroState(n=0.0, m=np.array([0.0, 1.0, 0.0]), q=0.0)
        times = np.linspace(0.0, 3.0, 11)
        traj = fluid_semigroup_V(basis, coeffs_mid, u0, xi, times)
        expected = np.exp(-coeffs_mid.kappa0 * 0.25 * times)
        assert np.max(np.abs(traj.norm_track - expected)) < 1e-12

    def test_matches_reduced_ode(self, op_mid, coeffs_mid):
        import scipy.integrate

        basis = op_mid.basis
        s = 0.5
        xi = np.array([s, 0.0, 0.0])
        u0 = suggested(basis, coeffs_mid, MacroState(n=0.4, m=np.array([0.0, 0.3, -0.2]), q=-0.9),
                       xi)
        q0 = u0.q
        times = np.linspace(0.0, 2.0, 9)
        traj = fluid_semigroup_V(basis, coeffs_mid, u0, xi, times)

        from vpb_spectral.transport import branch_decay
        b0 = branch_decay(0, s, coeffs_mid)
        b2 = branch_decay(2, s, coeffs_mid)

        def rhs(t, y):
            return np.concatenate([-b0 * y[:1], -b2 * y[1:]])

        sol = scipy.integrate.solve_ivp(
            rhs, (0.0, 2.0), np.array([q0, 0.0, 0.3, -0.2]), t_eval=times,
            rtol=1e-12, atol=1e-14)
        i = basis.invariant_indices
        for k in range(times.size):
            q_ode = sol.y[0, k]
            m_ode = sol.y[1:, k]
            n_ode = -math.sqrt(2.0 / 3.0) * s * s / (1.0 + s * s) * q_ode
            assert abs(traj.states[k][i[4]] - q_ode) < 1e-8
            assert abs(traj.states[k][i[0]] - n_ode) < 1e-8
            got_m = np.array([traj.states[k][i[1]], traj.states[k][i[2]],
                              traj.states[k][i[3]]])
            assert np.max(np.abs(got_m - m_ode)) < 1e-8

    def test_closed_forms_agree(self, op_mid, coeffs_mid):
        basis = op_mid.basis
        u0 = MacroState(n=0.2, m=np.array([0.1, -0.3, 0.7]), q=-0.4)
        for xi in (np.array([0.5, 0.0, 0.0]), np.array([1.3, 0.0, 0.0])):
            s2 = float(xi @ xi)
            traj = fluid_semigroup_V(basis, coeffs_mid, u0, xi, [0.0, 1.0])
            i0 = basis.invariant_indices[0]
            for k, t in enumerate((0.0, 1.0)):
                forms = closed_fluid_forms(basis, coeffs_mid, u0, xi, t)
                assert np.max(np.abs(forms["state"] - traj.states[k])) < 1e-12
                flux = traj.states[k][i0] / s2 * xi
                assert np.max(np.abs(forms["field_flux"] - flux)) < 1e-12

    def test_branch_sum_matches_closed_forms(self, op_mid, coeffs_mid):
        from vpb_spectral.dispersion import asymptotic_coefficients

        basis = op_mid.basis
        u0 = MacroState(n=0.2 - 0.1j, m=np.array([0.1, -0.3, 0.7j]), q=-0.4)
        u0vec = macro_vector(basis, u0.n, u0.m, u0.q)
        times = [0.0, 0.3, 1.0, 4.0]
        for xi in (np.array([0.5, 0.0, 0.0]), 1.3):
            bundle = asymptotic_coefficients(basis, xi, coeffs_mid)
            states = bundle.evolve(basis, u0vec, times, (0, 2, 3))
            slots = list(basis.invariant_indices)
            for k, t in enumerate(times):
                ref = closed_fluid_forms(basis, coeffs_mid, u0, xi, t)["state"]
                assert np.max(np.abs(states[k] - ref[slots])) < 1e-12
                assert np.all(np.delete(ref, slots) == 0.0)

    def test_five_branch_sum_is_identity_at_zero(self, op_mid, coeffs_mid):
        # the limit vectors are a pairing-orthonormal basis of the macro space
        from vpb_spectral.dispersion import asymptotic_coefficients

        basis = op_mid.basis
        u0vec = macro_vector(basis, 0.3 + 0.2j, [0.1, -0.5, 0.4], -0.7)
        bundle = asymptotic_coefficients(basis, np.array([0.55, 0.0, 0.0]), coeffs_mid)
        states = bundle.evolve(basis, u0vec, [0.0], (0, 2, 3, -1, 1), 0.05)
        assert np.max(np.abs(states[0] - u0vec[list(basis.invariant_indices)])) < 1e-12

    @pytest.mark.parametrize("xi", [
        np.zeros(3), 0.0, np.array([0.3, 0.4]), math.nan, math.inf,
        np.array([math.nan, 0.0, 0.0]), np.array([0.3, -0.4, 1.2]), np.array([-0.5, 0.0, 0.0])],
        ids=["zero-3-vector", "zero-scalar", "2-vector", "nan", "inf", "nan-axis-vector",
             "off-axis", "negative-axis"])
    def test_bad_wavevector_is_a_basis_error(self, op_mid, coeffs_mid, xi):
        # one parser (mode_operator's) behind every wavevector: a positive,
        # finite s or (s, 0, 0); before, NaN and inf gave NaN states or an
        # AssemblyError that blamed the operator
        from vpb_spectral.dispersion import asymptotic_coefficients

        basis = op_mid.basis
        u0 = macro_vector(basis, 0.3, [0.1, -0.5, 0.4], -0.7)
        for call in (lambda: asymptotic_coefficients(basis, xi, coeffs_mid),
                     lambda: fluid_semigroup_V(basis, coeffs_mid, u0, xi, [0.0, 1.0]),
                     lambda: closed_fluid_forms(basis, coeffs_mid, u0, xi, 1.0),
                     lambda: mode_operator(op_mid, 0.1, xi)):
            with pytest.raises(BasisError):
                call()

    def test_rejects_data_with_micro_part(self, op_mid, coeffs_mid):
        basis = op_mid.basis
        bad = np.zeros(basis.dim, dtype=complex)
        bad[-1] = 1.0
        with pytest.raises(DataError):
            fluid_semigroup_V(basis, coeffs_mid, bad, np.array([0.5, 0.0, 0.0]), [0.0])

    @pytest.mark.parametrize("n", [math.nan, math.inf, complex(0.2, math.nan)])
    def test_non_finite_moments_are_a_data_error(self, syn_small, n):
        # a NaN moment passes every constraint check (NaN > tol is False), so
        # each fluid kernel checks the moments themselves
        basis, xi = syn_small.basis, np.array([0.5, 0.0, 0.0])
        coeffs = compute_kappas(syn_small)
        u0 = MacroState(n=n, m=np.array([0.0, 0.1, -0.3]), q=0.2)
        with pytest.raises(DataError, match="finite moments"):
            nspf_mode_solve(basis, coeffs, u0, None, None, xi, [0.0, 1.0])
        with pytest.raises(DataError, match="finite moments"):
            fluid_semigroup_V(basis, coeffs, u0, xi, [0.0, 1.0])
        with pytest.raises(DataError, match="finite moments"):
            fluid_semigroup_V(basis, coeffs, macro_vector(basis, n, u0.m, u0.q), xi, [0.0])

    @pytest.mark.parametrize("times", [[math.nan], [math.inf], [-1.0], [0.0, -5.0]],
                             ids=["nan", "inf", "negative", "backwards"])
    def test_rejects_the_kinetic_flows_bad_times(self, op_mid, coeffs_mid, times):
        # the fluid kernel checks its times as the kinetic flow does: before,
        # NaN gave NaN states, and a negative time ran the semigroup backwards
        u0 = MacroState(n=0.2, m=np.array([0.1, -0.3, 0.7]), q=-0.4)
        with pytest.raises(DataError, match="finite, nondecreasing"):
            fluid_semigroup_V(op_mid.basis, coeffs_mid, u0, np.array([0.5, 0.0, 0.0]), times)


class TestNSPF:
    XI = np.array([0.5, 0.0, 0.0])

    def compatible(self, basis, coeffs) -> MacroState:
        raw = MacroState(n=0.37 - 0.1j, m=np.array([0.0, 0.6, -0.2 + 0.1j]), q=-0.82 + 0.4j)
        return suggested(basis, coeffs, raw, self.XI)

    def test_rejects_incompatible_with_suggestion(self, op_mid, coeffs_mid):
        basis = op_mid.basis
        raw = MacroState(n=0.37 - 0.1j, m=np.array([0.3, 0.6, -0.2]), q=-0.82 + 0.4j)
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DataError) as err:
            nspf_mode_solve(basis, coeffs_mid, raw, None, None, self.XI, times)
        sug = err.value.suggestion
        s2 = 0.25
        n_fix, q_fix = sug["n_hat"], sug["q_hat"]
        assert abs(n_fix + n_fix / s2 + math.sqrt(2.0 / 3.0) * q_fix) < 1e-12
        assert abs(self.XI @ sug["m_hat"]) < 1e-12
        # the repair preserves the forced combination
        w_raw = raw.q - math.sqrt(2.0 / 3.0) * raw.n
        assert abs((q_fix - math.sqrt(2.0 / 3.0) * n_fix) - w_raw) < 1e-12
        # it is the fluid semigroup's projection at t = 0, which the solve accepts
        fix = asymptotic_coefficients(basis, self.XI, coeffs_mid).evolve(
            basis, macro_vector(basis, raw.n, raw.m, raw.q), [0.0], (0, 2, 3))[0]
        got = np.array([n_fix, *sug["m_hat"], q_fix])
        assert np.max(np.abs(got - fix)) <= 1e-15
        u0 = MacroState(n=n_fix, m=sug["m_hat"], q=q_fix)
        states = nspf_mode_solve(basis, coeffs_mid, u0, None, None, self.XI, times)
        first = np.array([states[0].n_hat, *states[0].m_hat, states[0].q_hat])
        assert np.max(np.abs(first - fix)) <= 1e-15

    @pytest.mark.parametrize("xi", [0.0, np.nan, np.inf, (np.nan, 0.0, 0.0),
                                    (0.3, -0.4, 1.2), (-0.5, 0.0, 0.0)])
    def test_bad_wavevector_is_a_basis_error(self, op_mid, coeffs_mid, xi):
        # parsed by axis_wavenumber, as at every other entry point
        times = np.linspace(0.0, 1.0, 5)
        with pytest.raises(BasisError):
            nspf_mode_solve(op_mid.basis, coeffs_mid, self.compatible(op_mid.basis, coeffs_mid),
                            None, None, xi, times)

    @pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, np.inf], [-1.0, 0.0, 1.0],
                                       [0.0, 1.0, 0.5], [0.0]])
    def test_bad_times_are_a_data_error(self, op_mid, coeffs_mid, times):
        # checked as the kinetic flow checks them; one sample is a grid, and
        # its state is the data
        u0 = self.compatible(op_mid.basis, coeffs_mid)
        if len(times) == 1:
            [st] = nspf_mode_solve(op_mid.basis, coeffs_mid, u0, None, None, self.XI, times)
            assert abs(st.n_hat - u0.n) <= 1e-15 and abs(st.q_hat - u0.q) <= 1e-15
            assert np.max(np.abs(st.m_hat - u0.m)) <= 1e-15
            return
        with pytest.raises(DataError, match="finite, nondecreasing and start at t >= 0"):
            nspf_mode_solve(op_mid.basis, coeffs_mid, u0, None, None, self.XI, times)

    @pytest.mark.parametrize("which", ["h1", "h2", "callable"])
    def test_non_finite_forcing_is_a_data_error(self, syn_small, which):
        # a NaN or inf sample, from an array or a callable, would reach the
        # Duhamel sums and give NaN states
        basis, times = syn_small.basis, [0.0, 0.5, 1.0]
        coeffs = compute_kappas(syn_small)
        u0 = suggested(basis, coeffs, MacroState(n=0.3, m=np.zeros(3), q=-0.2), 0.5)
        h1, h2 = np.zeros((3, 3)), np.zeros(3)
        if which == "h1":
            h1[1, 2] = math.nan
        elif which == "h2":
            h2[2] = math.inf
        else:
            h2 = lambda t: math.nan if t > 0.7 else 0.0
        nspf_mode_solve(basis, coeffs, u0, np.zeros((3, 3)), np.zeros(3), 0.5, times)
        with pytest.raises(DataError, match="forcing samples must be finite"):
            nspf_mode_solve(basis, coeffs, u0, h1, h2, 0.5, times)

    def test_repair_closed_forms(self, op_mid, coeffs_mid):
        # repaired values follow the closed formulas in the raw moments
        s = 0.7
        n0, q0 = 0.4 + 0.2j, -1.1
        w = q0 - math.sqrt(2.0 / 3.0) * n0
        fix = suggested(op_mid.basis, coeffs_mid, MacroState(n=n0, m=np.zeros(3), q=q0), s)
        n_c, q_c = fix.n, fix.q
        s2 = s * s
        assert n_c == pytest.approx(-math.sqrt(6.0) * s2 / (3 + 5 * s2) * w, abs=1e-14)
        assert q_c == pytest.approx((3 + 3 * s2) / (3 + 5 * s2) * w, abs=1e-14)

    def test_unforced_matches_fluid_semigroup(self, op_mid, coeffs_mid):
        basis = op_mid.basis
        u0 = self.compatible(basis, coeffs_mid)
        times = np.linspace(0.0, 2.0, 9)
        states = nspf_mode_solve(basis, coeffs_mid, u0, None, None, self.XI, times)
        traj = fluid_semigroup_V(basis, coeffs_mid, u0, self.XI, times)
        i = basis.invariant_indices
        for k, st_k in enumerate(states):
            vs = traj.states[k]
            assert abs(st_k.n_hat - vs[i[0]]) < 1e-10
            assert abs(st_k.q_hat - vs[i[4]]) < 1e-10
            got_m = np.array([vs[i[1]], vs[i[2]], vs[i[3]]])
            assert np.max(np.abs(st_k.m_hat - got_m)) < 1e-10

    def test_density_energy_relation_and_constraints(self, op_mid, coeffs_mid):
        basis = op_mid.basis
        u0 = self.compatible(basis, coeffs_mid)
        times = np.linspace(0.0, 2.0, 41)
        h1 = np.column_stack([0.3 * np.sin(2 * times), 0.1 * np.cos(times),
                              -0.2 * np.sin(times)])
        h2 = 0.4 * np.cos(3 * times)
        states = nspf_mode_solve(basis, coeffs_mid, u0, h1, h2, self.XI, times)
        s2 = 0.25
        for st_k in states:
            assert abs(st_k.n_hat + math.sqrt(2.0 / 3.0) * s2 / (1 + s2)
                       * st_k.q_hat) < 1e-12
            div, bous = constraint_residuals(st_k, self.XI)
            assert div < 1e-12
            assert bous < 1e-12
            assert st_k.phi_hat == pytest.approx(-st_k.n_hat / s2, abs=1e-14)

    def test_forced_solution_matches_ode(self, op_mid, coeffs_mid):
        import scipy.integrate
        from vpb_spectral.transport import branch_decay

        basis = op_mid.basis
        s = 0.5
        u0 = self.compatible(basis, coeffs_mid)
        times = np.linspace(0.0, 2.0, 161)
        h1_s = np.column_stack([0.3 * np.sin(2 * times), 0.1 * np.cos(times),
                                -0.2 * np.sin(times) + 0.05j * times])
        h2_s = 0.4 * np.cos(3 * times) - 0.1j * np.sin(times)
        states = nspf_mode_solve(basis, coeffs_mid, u0, h1_s, h2_s, self.XI, times)

        b0 = branch_decay(0, s, coeffs_mid)
        b2 = branch_decay(2, s, coeffs_mid)
        c_w = (3 + 3 * s * s) / (3 + 5 * s * s)
        xi = self.XI

        def interp(samples, t):
            return np.array([np.interp(t, times, samples[:, k])
                             for k in range(samples.shape[1])]) \
                if samples.ndim == 2 else np.interp(t, times, samples)

        def rhs(t, y):
            q = y[0] + 1j * y[1]
            m = y[2:5] + 1j * y[5:8]
            hv = interp(h1_s, t)
            hp = hv - (hv @ xi) * xi / (s * s)
            dq = -b0 * q + c_w * interp(h2_s, t)
            dm = -b2 * m + hp
            return np.concatenate([[dq.real], [dq.imag], dm.real, dm.imag])

        m0 = np.asarray(u0.m, dtype=complex)
        y = np.concatenate([[complex(u0.q).real], [complex(u0.q).imag],
                            m0.real, m0.imag])
        # restart at every sample so the integrator never steps across a
        # kink of the piecewise-linear forcing
        for k in range(times.size - 1):
            sol = scipy.integrate.solve_ivp(
                rhs, (times[k], times[k + 1]), y, method="DOP853",
                rtol=1e-12, atol=1e-14)
            y = sol.y[:, -1]
        q_ode = y[0] + 1j * y[1]
        m_ode = y[2:5] + 1j * y[5:8]
        assert abs(states[-1].q_hat - q_ode) < 1e-8
        assert np.max(np.abs(states[-1].m_hat - m_ode)) < 1e-8


class TestFitDecay:
    def test_exact_exponential_recovery(self):
        t = np.linspace(0.5, 4.0, 12)
        fit = fit_decay((t, 2.7 * np.exp(-3.0 * t)), model="exp")
        assert fit.rate == pytest.approx(3.0, abs=1e-6)
        assert fit.r_squared > 1.0 - 1e-12

    def test_exact_polynomial_recovery(self):
        t = np.linspace(1.0, 50.0, 15)
        fit = fit_decay((t, 1.3 * (1 + t) ** -0.75), model="poly")
        assert fit.rate == pytest.approx(0.75, abs=1e-9)

    def test_too_few_samples(self):
        t = np.linspace(0.0, 1.0, 6)
        with pytest.raises(FitError):
            fit_decay((t, np.exp(-t)), model="exp")

    def test_non_monotone_tail_refused(self):
        t = np.linspace(0.0, 1.0, 12)
        v = np.exp(-t)
        v[7] *= 1.5
        with pytest.raises(FitError):
            fit_decay((t, v), model="exp")

    def test_trajectory_input(self, op_mid, coeffs_mid):
        u0 = MacroState(n=0.0, m=np.array([0.0, 1.0, 0.0]), q=0.0)
        times = np.linspace(0.0, 4.0, 12)
        traj = fluid_semigroup_V(op_mid.basis, coeffs_mid, u0,
                                 np.array([0.5, 0.0, 0.0]), times)
        fit = fit_decay(traj, model="exp")
        assert fit.rate == pytest.approx(coeffs_mid.kappa0 * 0.25, rel=1e-9)


class TestPacketRates:
    """Algebraic decay of grid-synthesized packets; oracle values in the
    module docstring, shipped tolerance 0.1 on each rate."""

    def test_density_free_macro_rate(self, syn_small):
        basis = syn_small.basis
        data = (basis.chi(2) + basis.chi(4)) / math.sqrt(2.0)
        times = np.expm1(np.linspace(np.log(31.0), np.log(401.0), 10))
        norms = packet_norms(syn_small, data, 0.1, times, micro=False)
        fit = fit_decay((times, norms), model="poly")
        assert fit.rate == pytest.approx(0.75, abs=0.1)

    def test_density_carrying_macro_rate(self, syn_small):
        basis = syn_small.basis
        times = np.expm1(np.linspace(np.log(31.0), np.log(401.0), 10))
        norms = packet_norms(syn_small, basis.chi(0), 0.1, times, micro=False)
        fit = fit_decay((times, norms), model="poly")
        assert fit.rate == pytest.approx(0.25, abs=0.1)

    def test_micro_eps_prefactor_slope(self, syn_small):
        basis = syn_small.basis
        data = (basis.chi(2) + basis.chi(4)) / math.sqrt(2.0)
        eps_list = np.array([0.1, 0.05, 0.025])
        vals = np.array([packet_norms(syn_small, data, e, [20.0], micro=True)[0]
                         for e in eps_list])
        slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)
