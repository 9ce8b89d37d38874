import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session", autouse=True)
def _operator_cache(tmp_path_factory):
    # share assembled operators across the whole run
    path = tmp_path_factory.mktemp("opcache")
    os.environ.setdefault("VPB_SPECTRAL_CACHE", str(path))
    yield


@pytest.fixture(scope="session")
def basis_small():
    from vpb_spectral import build_basis

    return build_basis(2)


@pytest.fixture(scope="session")
def basis_mid():
    from vpb_spectral import build_basis

    return build_basis(4)


@pytest.fixture(scope="session")
def basis_prod():
    from vpb_spectral import build_basis

    return build_basis(6)


@pytest.fixture(scope="session")
def hard_sphere_prod(basis_prod):
    from vpb_spectral.collision import assemble_collision

    return assemble_collision(basis_prod, gamma=1.0)


@pytest.fixture(scope="session")
def synthetic_prod(basis_prod):
    from vpb_spectral.collision import synthetic_collision

    return synthetic_collision(basis_prod)


@pytest.fixture(scope="session")
def axis_operators(basis_mid, synthetic_prod):
    """The operators the parity-block tests run on, by name."""
    from vpb_spectral.collision import assemble_collision, synthetic_collision

    return {"synthetic-4": synthetic_collision(basis_mid),
            "synthetic-6": synthetic_prod,
            "hard-sphere-4": assemble_collision(basis_mid)}


@pytest.fixture(scope="session")
def broken_frames():
    """operator(kind): a degree-4 hard-sphere operator on a fresh basis whose
    Burnett frames (VelocityBasis.axis_sectors: the transform, the parity
    scale and each copy's Frame alike) are planted broken before anything
    else reads them, so the sector streaming blocks, which are read off the
    labels, no longer match the dense conj(S) (-i V1) S that `check` holds
    them against: "imaginary part" (one a1-odd slot without its parity
    scale), "entry between sectors" (a sector 2 column picks up 1e-8 of a
    sector 0 column), "cos/sin copy mismatch" (one column of the cos copy
    of sector 1 flips its sign) or "non-finite" (a NaN in a sector 1
    column)."""
    import dataclasses

    from vpb_spectral import build_basis
    from vpb_spectral.collision import assemble_collision
    from vpb_spectral.velocity_space import Frame

    def operator(kind):
        basis = build_basis(4)
        sectors = basis.axis_sectors
        scale, t = np.array(sectors.scale), np.array(sectors.transform)
        one = sectors.spans[1][0]
        if kind == "imaginary part":
            scale[np.flatnonzero(scale.imag)[0]] = 1.0
        elif kind == "entry between sectors":
            zero, two = sectors.spans[0][0], sectors.spans[2][0]
            t[:, two.start] += 1e-8 * t[:, zero.start + sectors.n_invariant[0]]
        elif kind == "cos/sin copy mismatch":
            t[:, one.start + sectors.n_invariant[1]] *= -1.0
        else:
            t[sectors.frames[1][0].index[-1], one.stop - 1] = np.nan
        frames = tuple(tuple(Frame(fr.index, scale[fr.index], t[fr.index, sl])
                             for fr, sl in zip(copies, spans))
                       for copies, spans in zip(sectors.frames, sectors.spans))
        vars(basis)["axis_sectors"] = dataclasses.replace(sectors, scale=scale, transform=t,
                                                          frames=frames)
        return assemble_collision(basis)
    return operator


@pytest.fixture(scope="session")
def check_fails(tmp_path_factory):
    """run(op): `vpb-spectral check` on a small synthetic config with op in
    place of the operator the config builds; (exit code, its FAIL lines)."""
    import contextlib
    import io
    from unittest import mock

    from vpb_spectral import cli

    cfg = tmp_path_factory.mktemp("check") / "check.cfg"
    cfg.write_text("backend = synthetic\nmax_degree = 3\ns_count = 6\n", encoding="utf-8")

    def run(op):
        out = io.StringIO()
        with mock.patch.object(cli, "build_operator", lambda _: op), \
                contextlib.redirect_stdout(out):
            code = cli.main(["check", "--config", str(cfg)])
        return code, [line for line in out.getvalue().splitlines() if line.startswith("FAIL ")]
    return run


@pytest.fixture(scope="session")
def parity_blocks():
    """blocks(basis): the slots of each (a2, a3 mod 2) class, in the order
    (even, even), (even, odd), (odd, even), (odd, odd)."""
    def blocks(basis):
        label = (np.array(basis.multi_indices) % 2) @ np.array([0, 2, 1])
        return [np.flatnonzero(label == c) for c in range(4)]
    return blocks

