"""Command-line driver: exit codes, artifact naming, reproducibility."""

import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import vpb_spectral
from vpb_spectral import cli, collision, transport, velocity_space
from vpb_spectral.cli import (
    CONVERGE_HEADER,
    DISPERSION_HEADER,
    SEMIGROUP_HEADER,
    SPECTRUM_HEADER,
    SUBCOMMANDS,
    main,
    write_json,
)
from vpb_spectral.blas import describe_policy

TINY = "\n".join([
    "backend = synthetic",
    "max_degree = 3",
    "s_count = 6",
    "eps_list = 0.2, 0.1, 0.05",
    "t_max = 4.0",
    "n_layer = 3",
    "n_bulk = 6",
    "jobs = 2",
    "",
])


@pytest.fixture(scope="module")
def tiny_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def artifact_of(out, suffix):
    paths = [line for line in out.splitlines() if line.endswith(suffix)]
    assert len(paths) == 1, f"expected one {suffix} artifact line in {out!r}"
    return paths[0]


NAME_RE = re.compile(r"^(check|spectrum|dispersion|transport|semigroup|converge)"
                     r"-[0-9a-f]{12}\.(csv|json)$")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_config_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("eps_list = 0.2, 1.2\n", encoding="utf-8")
        code, _, err = run_cli(["spectrum", "--config", bad], capsys)
        assert code == 2
        assert "config error" in err
        assert "(0, 1)" in err  # the constraint users trip over most

    def test_max_degree_above_the_bound_is_two(self, tmp_path, capsys):
        # refused before any basis is built
        big = tmp_path / "big.cfg"
        big.write_text("backend = synthetic\nmax_degree = 17\n", encoding="utf-8")
        code, out, err = run_cli(["converge", "--config", big, "--out", tmp_path / "out"],
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: ") and "field 'max_degree': 17 is above 16" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_field_cites_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("backend = synthetic\nbogus = 1\n", encoding="utf-8")
        code, _, err = run_cli(["check", "--config", bad], capsys)
        assert code == 2
        assert f"{bad.name}:2" in err

    def test_runtime_error_is_one(self, tmp_path, capsys):
        # a valid config whose every (eps, s) pair lies outside the eps*s ball
        cfg = tmp_path / "ball.cfg"
        cfg.write_text(TINY.replace("eps_list = 0.2, 0.1, 0.05",
                                    "eps_list = 0.9, 0.8\ns_min = 0.5"), encoding="utf-8")
        code, _, err = run_cli(["spectrum", "--config", cfg,
                                "--out", tmp_path / "a"], capsys)
        assert code == 1
        assert "RegimeError" in err

    def test_two_eps_values_are_two_for_converge_only(self, tmp_path, capsys):
        # converge fits a slope over eps and needs three values; the branch
        # sweeps do not
        cfg = tmp_path / "short.cfg"
        cfg.write_text(TINY.replace("eps_list = 0.2, 0.1, 0.05",
                                    "eps_list = 0.2, 0.1"), encoding="utf-8")
        code, out, err = run_cli(["converge", "--config", cfg,
                                  "--out", tmp_path / "a"], capsys)
        assert code == 2
        assert "field 'eps_list'" in err and "at least three" in err
        assert out == "" and not (tmp_path / "a").exists()
        code, out, _ = run_cli(["dispersion", "--config", cfg,
                                "--out", tmp_path / "b"], capsys)
        assert code == 0
        assert NAME_RE.match(Path(artifact_of(out, ".csv")).name)

    @pytest.mark.parametrize("sigma", ["0.001", "1e-300"])
    @pytest.mark.parametrize("sub", ["converge", "semigroup"])
    def test_profile_zero_on_every_shell_is_one_and_writes_nothing(self, sub, sigma, tmp_path,
                                                                   capsys, recwarn):
        # exp(-s^2 / 2 sigma^2) underflows to zero at every s >= s_min, and at
        # 1e-300 the exponent divides by a zero 2 sigma^2
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(TINY + f"profile_sigma = {sigma}\n", encoding="utf-8")
        code, out, err = run_cli([sub, "--config", cfg, "--out", tmp_path / "a"], capsys)
        assert code == 1
        assert err == ("error: DataError: the spectral profile must be finite on every "
                       "shell and nonzero on one\n")
        assert out == "" and not (tmp_path / "a").exists()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("sub", ["converge", "spectrum"])
    def test_shell_without_a_finite_poisson_weight_is_one(self, sub, tmp_path, capsys, recwarn):
        # validate_config accepts s_min = 1e-200, whose 1/s^2 overflows: each
        # job refuses the shell where it first parses it, before any warning
        cfg = tmp_path / "tiny_shell.cfg"
        cfg.write_text(TINY + "s_spacing = uniform\ns_min = 1e-200\n", encoding="utf-8")
        code, out, err = run_cli([sub, "--config", cfg, "--out", tmp_path / "a"], capsys)
        assert code == 1 and out == "" and not (tmp_path / "a").exists()
        assert err.startswith("error: BasisError: ") and err.count("\n") == 1
        assert "1e-200" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_nan_t_max_is_two_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(TINY.replace("t_max = 4.0", "t_max = nan"), encoding="utf-8")
        code, out, err = run_cli(["converge", "--config", cfg,
                                  "--out", tmp_path / "a"], capsys)
        assert code == 2
        assert "field 't_max': non-finite value nan" in err
        assert out == "" and not (tmp_path / "a").exists()

    def test_gamma_above_one_is_two_and_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "gamma.cfg"
        cfg.write_text("backend = hard_sphere\ngamma = 1.5\n", encoding="utf-8")
        code, out, err = run_cli(["transport", "--config", cfg,
                                  "--out", tmp_path / "a"], capsys)
        assert code == 2
        assert "field 'gamma'" in err
        assert out == "" and not (tmp_path / "a").exists()

    def test_quad_order_is_an_unknown_field_and_writes_nothing(self, tmp_path, capsys):
        # the basis has one quadrature rule, sized by max_degree alone
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(TINY + "quad_order = 12\n", encoding="utf-8")
        code, out, err = run_cli(["converge", "--config", cfg,
                                  "--out", tmp_path / "a"], capsys)
        assert code == 2
        assert "unknown field 'quad_order'" in err
        assert out == "" and not (tmp_path / "a").exists()

    @pytest.mark.parametrize("sub", ["spectrum", "converge"])
    def test_repeated_eps_is_two_and_writes_nothing(self, sub, tmp_path, capsys):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(TINY.replace("eps_list = 0.2, 0.1, 0.05",
                                    "eps_list = 0.1, 0.1, 0.05"), encoding="utf-8")
        code, out, err = run_cli([sub, "--config", cfg, "--out", tmp_path / "a"], capsys)
        assert code == 2
        assert "field 'eps_list': repeated entries" in err
        assert out == "" and not (tmp_path / "a").exists()

    @pytest.mark.parametrize("old, new, field", [("n_bulk = 6", "n_bulk = 1", "n_bulk"),
                                                 ("n_layer = 3", "n_layer = 0", "n_layer")])
    def test_time_grid_counts_name_their_field(self, old, new, field, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(TINY.replace(old, new), encoding="utf-8")
        code, out, err = run_cli(["converge", "--config", cfg,
                                  "--out", tmp_path / "a"], capsys)
        assert code == 2
        assert f"field {field!r}" in err
        other = "n_layer" if field == "n_bulk" else "n_bulk"
        assert other not in err
        assert out == "" and not (tmp_path / "a").exists()

    def test_empty_sweep_is_one_and_writes_nothing(self, tmp_path, capsys):
        # every eps * s exceeds the 0.3 ball, so no mode is left to compute
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("eps_list = 0.9\ns_min = 0.5\ns_max = 0.6\n", encoding="utf-8")
        for sub in ("spectrum", "dispersion"):
            code, out, err = run_cli([sub, "--config", cfg, "--out", tmp_path / "a"], capsys)
            assert code == 1
            assert "RegimeError" in err
            assert out == "" and not (tmp_path / "a").exists()

    def test_json_refuses_nan_and_writes_nothing(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError):
            write_json(path, {"t_max": float("nan")})
        assert not path.exists()

    def test_bad_override_is_two(self, tiny_cfg, capsys):
        code, _, err = run_cli(["transport", "--config", tiny_cfg,
                                "--backend", "bogus"], capsys)
        assert code == 2
        assert "command line" in err


class TestArtifacts:
    def test_spectrum(self, tiny_cfg, tmp_path, capsys):
        code, out, err = run_cli(["spectrum", "--config", tiny_cfg,
                                  "--out", tmp_path], capsys)
        assert code == 0
        path = artifact_of(out, ".csv")
        name = path.rsplit("/", 1)[-1]
        assert NAME_RE.match(name)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == ",".join(SPECTRUM_HEADER)
        # 6 shells x 3 eps inside the ball, five branches each
        assert len(lines) - 1 == 6 * 3 * 5
        i_det = SPECTRUM_HEADER.index("det_residual")
        for line in lines[1:]:
            assert float(line.split(",")[i_det]) <= 1e-8

    def test_dispersion_has_model_column(self, tiny_cfg, tmp_path, capsys):
        code, out, _ = run_cli(["dispersion", "--config", tiny_cfg,
                                "--out", tmp_path], capsys)
        assert code == 0
        lines = open(artifact_of(out, ".csv"), encoding="utf-8").read().splitlines()
        assert lines[0] == ",".join(DISPERSION_HEADER)
        i_res = DISPERSION_HEADER.index("asym_residual")
        residuals = [float(line.split(",")[i_res]) for line in lines[1:]]
        assert all(r < 0.1 for r in residuals)

    def test_transport_json(self, tiny_cfg, tmp_path, capsys):
        code, out, _ = run_cli(["transport", "--config", tiny_cfg,
                                "--out", tmp_path], capsys)
        assert code == 0
        payload = json.loads(open(artifact_of(out, ".json"), encoding="utf-8").read())
        assert set(payload) == {"schema", "config", "backend", "max_degree",
                                "kappa0", "kappa1", "kappa0_long", "error_bar",
                                "basis_hash"}
        # synthetic backend with unit rate has closed-form coefficients
        assert payload["kappa0"] == pytest.approx(1.0, rel=1e-12)
        assert payload["kappa1"] == pytest.approx(5.0 / 3.0, rel=1e-12)
        assert payload["kappa0_long"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert payload["error_bar"] is None

    def test_semigroup_norms_decay(self, tiny_cfg, tmp_path, capsys):
        code, out, _ = run_cli(["semigroup", "--config", tiny_cfg,
                                "--out", tmp_path], capsys)
        assert code == 0
        lines = open(artifact_of(out, ".csv"), encoding="utf-8").read().splitlines()
        assert lines[0] == ",".join(SEMIGROUP_HEADER)
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        ts = [r[0] for r in rows]
        assert ts == sorted(ts) and ts[0] == 0.0
        i_s2 = SEMIGROUP_HEADER.index("norm_s2")
        assert rows[-1][i_s2] < 1e-6 * max(rows[0][i_s2], 1e-300)

    def test_converge_csv_and_sidecar(self, tiny_cfg, tmp_path, capsys):
        code, out, _ = run_cli(["converge", "--config", tiny_cfg,
                                "--out", tmp_path], capsys)
        assert code == 0
        csv_path = artifact_of(out, ".csv")
        json_path = artifact_of(out, ".json")
        lines = open(csv_path, encoding="utf-8").read().splitlines()
        assert lines[0] == ",".join(CONVERGE_HEADER)
        meta = json.loads(open(json_path, encoding="utf-8").read())
        for key in ("eps_slope", "weighted_sup", "config", "time_grid",
                    "kind", "backend", "eps_list"):
            assert key in meta
        assert meta["eps_slope"] == pytest.approx(1.0, abs=0.15)
        digest = csv_path.rsplit("-", 1)[-1].split(".")[0]
        assert meta["config"] == digest

    def test_out_dir_created(self, tiny_cfg, tmp_path, capsys):
        nested = tmp_path / "a" / "b"
        code, out, _ = run_cli(["transport", "--config", tiny_cfg,
                                "--out", nested], capsys)
        assert code == 0
        assert nested.is_dir() and list(nested.glob("transport-*.json"))

    def test_override_changes_digest(self, tiny_cfg, tmp_path, capsys):
        _, out1, _ = run_cli(["transport", "--config", tiny_cfg,
                              "--out", tmp_path / "x"], capsys)
        _, out2, _ = run_cli(["transport", "--config", tiny_cfg,
                              "--out", tmp_path / "x", "--jobs", "3"], capsys)
        assert artifact_of(out1, ".json") != artifact_of(out2, ".json")


class TestReproducibility:
    """The same config must reproduce every artifact byte for byte."""

    @pytest.mark.parametrize("sub", ["spectrum", "converge"])
    def test_rerun_bytes_equal(self, sub, tiny_cfg, tmp_path, capsys):
        out_dir = tmp_path / sub
        code, out, _ = run_cli([sub, "--config", tiny_cfg, "--out", out_dir],
                               capsys)
        assert code == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        code, _, _ = run_cli([sub, "--config", tiny_cfg, "--out", out_dir],
                             capsys)
        assert code == 0
        second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert first == second

    def test_jobs_do_not_change_rows(self, tiny_cfg, tmp_path, capsys):
        # thread count is an operational knob; row content must not move
        _, out1, _ = run_cli(["spectrum", "--config", tiny_cfg,
                              "--out", tmp_path / "j1", "--jobs", "1"], capsys)
        _, out4, _ = run_cli(["spectrum", "--config", tiny_cfg,
                              "--out", tmp_path / "j4", "--jobs", "4"], capsys)
        body1 = open(artifact_of(out1, ".csv"), encoding="utf-8").read()
        body4 = open(artifact_of(out4, ".csv"), encoding="utf-8").read()
        assert body1 == body4

    def test_dispersion_runs_one_stacked_sweep(self, tiny_cfg, tmp_path, capsys, monkeypatch):
        # every mode of the sweep goes to one hydrodynamic_sweep call, at any
        # jobs; no mode is solved on its own
        import vpb_spectral.cli as cli

        calls = []
        sweep = cli.hydrodynamic_sweep
        monkeypatch.setattr(cli, "hydrodynamic_sweep",
                            lambda op, modes: calls.append(len(modes)) or sweep(op, modes))
        code, out, _ = run_cli(["dispersion", "--config", tiny_cfg,
                                "--out", tmp_path, "--jobs", "4"], capsys)
        assert code == 0 and calls == [6 * 3]
        lines = open(artifact_of(out, ".csv"), encoding="utf-8").read().splitlines()
        assert len(lines) - 1 == 6 * 3 * 5

    def test_semigroup_job_and_split_step_propagate_once(self, tiny_cfg, tmp_path, capsys,
                                                         monkeypatch):
        # the semigroup job and check's "semigroup split" step each propagate
        # their mode once and sweep its branches once: S2 is that flow minus
        # the branch sum, not a second propagation
        import vpb_spectral.cli as cli
        import vpb_spectral.dispersion as dispersion
        import vpb_spectral.semigroup as semigroup

        calls = []
        for module, name in ((semigroup, "_eig_coordinates"), (dispersion, "hydrodynamic_sweep"),
                             (cli, "hydrodynamic_sweep")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        code, _, _ = run_cli(["semigroup", "--config", tiny_cfg, "--out", tmp_path], capsys)
        assert code == 0
        assert sorted(calls) == ["_eig_coordinates", "hydrodynamic_sweep"]
        calls.clear()
        cfg = cli.parse_config(str(tiny_cfg))
        dict(cli._check_steps(cfg, cli.build_operator(cfg)))["semigroup split"]()
        assert sorted(calls) == ["_eig_coordinates", "hydrodynamic_sweep"]


    def test_shells_without_data_inside_a_stack_keep_the_bytes(self, tmp_path, capsys,
                                                               monkeypatch):
        # on the benchmark's grid, profile_sigma = 0.01 underflows to exact
        # zeros on the upper shells, and one stack holds zero and nonzero
        # shells: the zero members must add exact zeros, never be refused,
        # and leave the bytes of one shell per task
        import vpb_spectral.limit_lab as limit_lab
        import vpb_spectral.semigroup as semigroup

        cfg = tmp_path / "sigma.cfg"
        cfg.write_text("\n".join([
            "backend = synthetic", "max_degree = 6", "s_count = 32",
            "eps_list = 0.2, 0.1, 0.05, 0.025", "t_max = 20", "n_layer = 12",
            "n_bulk = 24", "kind = generic", "subtract_layer = true",
            "profile_sigma = 0.01", ""]), encoding="utf-8")
        nodes = limit_lab.radial_grid(0.05, 0.6, 32).nodes
        held = [math.exp(-s * s / 2e-4) != 0.0 for s in nodes]
        first_zero = held.index(False)
        assert first_zero % limit_lab.SHELLS_PER_STACK != 0 and not any(held[first_zero:])
        monkeypatch.setattr(semigroup, "_expm", None)  # no member is refused
        runs = []
        for size in (1, limit_lab.SHELLS_PER_STACK):
            monkeypatch.setattr(limit_lab, "SHELLS_PER_STACK", size)
            code, out, _ = run_cli(["converge", "--config", cfg, "--out", tmp_path / "out"],
                                   capsys)
            assert code == 0
            runs.append({ext: open(artifact_of(out, ext), "rb").read()
                         for ext in (".csv", ".json")})
        assert runs[0] == runs[1]


class TestHardSphereTransport:
    CONFIG = "backend = hard_sphere\nmax_degree = {}\njobs = 1\n"

    def run(self, degree, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("VPB_SPECTRAL_CACHE", str(cache))
        cfg = tmp_path / "hs.cfg"
        cfg.write_text(self.CONFIG.format(degree), encoding="utf-8")
        return cache, run_cli(["transport", "--config", cfg, "--out", tmp_path / "out"],
                              capsys)

    def test_one_basis_and_one_assembly(self, tmp_path, capsys, monkeypatch):
        # the coarse level is read off the degree-(N+2) radial blocks
        calls = {"build_basis": 0, "_dirichlet_matrix": 0}
        spied = [(m, "build_basis") for m in (vpb_spectral, velocity_space, transport, cli)]
        for module, name in spied + [(collision, "_dirichlet_matrix")]:
            def spy(*args, _orig=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        cache, (code, out, _) = self.run(3, tmp_path, capsys, monkeypatch)
        assert code == 0
        assert calls == {"build_basis": 1, "_dirichlet_matrix": 1}
        written = list(cache.iterdir())
        assert len(written) == 1 and written[0].suffix == ".vpbc"
        payload = json.loads(open(artifact_of(out, ".json"), encoding="utf-8").read())
        assert payload["max_degree"] == 5 and payload["error_bar"] > 0.0

    def test_below_degree_three_assembles_nothing(self, tmp_path, capsys, monkeypatch):
        cache, (code, out, err) = self.run(2, tmp_path, capsys, monkeypatch)
        assert code == 1
        assert err == ("error: BasisError: heat flux vanishes below degree 3; transport "
                       "needs max_degree >= 3\n")
        assert out == "" and list(cache.iterdir()) == []


class TestCheck:
    def test_all_steps_pass_quickly(self, tiny_cfg, capsys):
        t0 = time.perf_counter()
        code, out, _ = run_cli(["check", "--config", tiny_cfg], capsys)
        elapsed = time.perf_counter() - t0
        assert code == 0
        assert elapsed < 60.0
        assert "FAIL" not in out
        assert len([line for line in out.splitlines()
                    if line.startswith("PASS ")]) == 10
        assert out.splitlines()[-1].startswith("OK (0 failure(s)")
        # the thread policy is stated once, before the steps
        assert out.splitlines()[0] == describe_policy()

    def test_sign_flipped_frame_column_fails_the_basis_step(self, tiny_cfg, capsys,
                                                             monkeypatch):
        # one sector-0 frame column flips its sign, in the transform and in its
        # frame: the frames stay orthogonal, but the streaming blocks, read off
        # the labels, no longer follow them, so the quadrature reference, the
        # dense streaming reference and the certification of the branch roots
        # against the dense mode matrix all see it
        build = cli.build_operator

        def planted(cfg):
            op = build(cfg)
            sectors = op.basis.axis_sectors
            col = sectors.n_invariant[0]
            t = np.array(sectors.transform)
            t[:, col] *= -1.0
            fr = sectors.frames[0][0]
            flipped = np.array(fr.basis)
            flipped[:, col] *= -1.0
            frames = ((fr._replace(basis=flipped),),) + sectors.frames[1:]
            vars(op.basis)["axis_sectors"] = dataclasses.replace(sectors, transform=t,
                                                                 frames=frames)
            return op

        monkeypatch.setattr(cli, "build_operator", planted)
        code, out, _ = run_cli(["check", "--config", tiny_cfg], capsys)
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert [line.split(":")[0] for line in fails] == [
            "FAIL basis quadrature", "FAIL streaming blocks", "FAIL dispersion consistency",
            "FAIL semigroup split"]
        assert fails[0].startswith("FAIL basis quadrature: Burnett transform off its "
                                   "quadrature projection by")
        assert "times STRUCTURE_TOL" in fails[1]
        # both steps certify the branch roots against the dense mode matrix
        assert all("determinant root does not match the mode operator" in line
                   for line in fails[2:])

    def test_skewed_branch_weight_fails_only_the_split_step(self, tiny_cfg, capsys,
                                                             monkeypatch):
        # S1 is held against the dense spectral projection of the mode matrix,
        # not against the flow it is subtracted from, so one branch weighted
        # by 1 + 1e-6 fails the split step and no other
        part = cli.hydrodynamic_part

        def skewed(basis, eps, s, f0, times, points):
            return (part(basis, eps, s, f0, times, points)
                    + 1e-6 * part(basis, eps, s, f0, times, points[:1]))

        monkeypatch.setattr(cli, "hydrodynamic_part", skewed)
        code, out, _ = run_cli(["check", "--config", tiny_cfg], capsys)
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert [line.split(":")[0] for line in fails] == ["FAIL semigroup split"]
        assert "off the dense spectral projection by" in fails[0]

    def test_failing_step_fails_under_python_o(self, tmp_path):
        # python -O strips assert statements: a step that tested with them
        # passed a det residual above tol, and check exited 0
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("backend = synthetic\nmax_degree = 3\ns_count = 6\ntol = 1e-300\n",
                       encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "vpb_spectral", "check", "--config", str(cfg)],
            capture_output=True, text=True, timeout=120, env=_child_env(), cwd=tmp_path)
        assert proc.returncode == 1
        fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
        assert [line.split(":")[0] for line in fails] == ["FAIL dispersion consistency"]
        assert fails[0].startswith("FAIL dispersion consistency: det residual ")

    def test_package_holds_no_assert_statement(self):
        # every check of the package holds under python -O too
        assert _source_places(lambda node: isinstance(node, ast.Assert)) == set()

    @pytest.mark.parametrize("eps_list", ["0.1", "0.05, 0.2"])
    def test_short_eps_list_sharing_the_padding_passes(self, eps_list, tmp_path, capsys):
        # the determinism step pads eps_list to three values with 0.2, 0.1 and
        # 0.05; a value the list already holds is not added twice
        cfg = tmp_path / "short.cfg"
        cfg.write_text(TINY.replace("eps_list = 0.2, 0.1, 0.05", f"eps_list = {eps_list}"),
                       encoding="utf-8")
        code, out, _ = run_cli(["check", "--config", cfg], capsys)
        assert "FAIL" not in out
        assert code == 0

    def test_default_config_check(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # keep any artifact litter out of the repo
        code, out, _ = run_cli(["check"], capsys)
        assert code == 0
        assert "OK" in out.splitlines()[-1]


def _source_places(hit, paths=None) -> set:
    """The dotted names of the functions and classes in the package (or in
    the modules at paths) whose own bodies, nested definitions left out,
    hold a node for which hit(node) is true; module-level nodes count for
    the module."""
    places = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where + (child.name,))
                continue
            if hit(child):
                places.add(".".join(where))
            visit(child, where)

    for path in sorted(paths or Path(vpb_spectral.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    return places


TINY_JOBS = [
    ("converge", "backend = synthetic\nmax_degree = 3\ns_count = 4\n"
                 "eps_list = 0.2, 0.1, 0.05\nt_max = 4.0\nn_layer = 3\nn_bulk = 6\n"
                 "kind = generic\nsubtract_layer = true\njobs = 1\n"),
    ("dispersion", "backend = hard_sphere\nmax_degree = 3\ns_count = 3\n"
                   "eps_list = 0.2, 0.1\njobs = 1\n"),
    ("transport", "backend = hard_sphere\nmax_degree = 3\njobs = 1\n"),
    ("check", "backend = hard_sphere\nmax_degree = 3\ns_count = 4\n"
              "eps_list = 0.2, 0.1, 0.05\nt_max = 4.0\nn_layer = 3\nn_bulk = 6\n"),
    ("spectrum", "backend = synthetic\nmax_degree = 3\ns_count = 3\neps_list = 0.2, 0.1\n"),
    ("semigroup", "backend = hard_sphere\nmax_degree = 3\ns_count = 4\neps_list = 0.1\n"
                  "t_max = 4.0\nn_layer = 3\nn_bulk = 6\n"),
]


def _modules_after_job(subcommand: str, config: str, tmp_path, wanted: str) -> str:
    """The sorted names m in sys.modules for which the expression wanted
    holds, printed by a fresh process after one job on config, which
    assembles into an empty cache."""
    cfg = tmp_path / "job.cfg"
    cfg.write_text(config, encoding="utf-8")
    env = _child_env()
    env["VPB_SPECTRAL_CACHE"] = str(tmp_path / "cache")
    code = ("import sys; from vpb_spectral.cli import main; rc = main(sys.argv[1:]); "
            f"print(sorted(m for m in sys.modules if {wanted})); sys.exit(rc)")
    proc = subprocess.run(
        [sys.executable, "-c", code, subcommand, "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _child_env() -> dict:
    """Environment in which a child process finds the package the way this
    process did, installed or not."""
    src = str(Path(vpb_spectral.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_module_invocation(self, tiny_cfg, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "vpb_spectral", "transport",
             "--config", str(tiny_cfg), "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=_child_env())
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith(".json")

    def test_import_leaves_fallback_modules_out(self):
        # scipy serves the oracle and check paths only; importing
        # scipy.linalg and scipy.special alone costs every command about 0.4 s
        code = ("import sys, vpb_spectral.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_scipy_is_imported_only_on_the_oracle_paths(self):
        # no scipy import, at module level or local, is left in the package:
        # the dense-spectrum check that needed it lives with the tests
        def imports_scipy(node):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if node.level == 0 else []
            else:
                names = []
            return any(name.split(".")[0] == "scipy" for name in names)

        assert _source_places(imports_scipy) == set()

    def test_converge_leaves_numpy_ma_out(self, tmp_path):
        # np.unique imports numpy.ma on its first call; the converge time grid
        # is built without it
        cfg = tmp_path / "job.cfg"
        cfg.write_text("backend = synthetic\nmax_degree = 3\ns_count = 4\n"
                       "eps_list = 0.2, 0.1, 0.05\nt_max = 4.0\nn_layer = 3\nn_bulk = 6\n"
                       "kind = generic\nsubtract_layer = true\n", encoding="utf-8")
        env = _child_env()
        env["VPB_SPECTRAL_CACHE"] = str(tmp_path / "cache")
        code = ("import sys; from vpb_spectral.cli import main; rc = main(sys.argv[1:]); "
                "print('numpy.ma' in sys.modules); sys.exit(rc)")
        proc = subprocess.run(
            [sys.executable, "-c", code, "converge", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"

    def test_one_job_leaves_the_thread_pool_out(self, tmp_path):
        # only jobs > 1 imports concurrent.futures, with logging and queue
        cfg = tmp_path / "job.cfg"
        cfg.write_text("backend = synthetic\nmax_degree = 3\ns_count = 4\n"
                       "eps_list = 0.2, 0.1, 0.05\nt_max = 4.0\nn_layer = 3\nn_bulk = 6\n",
                       encoding="utf-8")
        env = _child_env()
        env["VPB_SPECTRAL_CACHE"] = str(tmp_path / "cache")
        code = ("import sys; from vpb_spectral.cli import main; rc = main(sys.argv[1:]); "
                "print('concurrent.futures' in sys.modules); sys.exit(rc)")
        for jobs, loaded in (("1", "False"), ("2", "True")):
            proc = subprocess.run(
                [sys.executable, "-c", code, "converge", "--config", str(cfg), "--jobs", jobs,
                 "--out", str(tmp_path / "out")],
                capture_output=True, text=True, timeout=120, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip().splitlines()[-1] == loaded

    def test_every_module_level_import_is_read(self):
        # an imported name that its module never reads is dead code no other
        # check reports; the package's __init__ imports to re-export
        unread = []
        paths = [*Path(vpb_spectral.__file__).parent.glob("*.py"),
                 *Path(__file__).parent.glob("*.py")]
        for path in sorted(paths):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    unread += [f"{path.stem}: {name}" for name in
                               (alias.asname or alias.name.split(".")[0] for alias in node.names)
                               if name not in read]
        assert unread == []

    def test_whole_micro_block_is_read_only_by_the_reference_solves(self):
        # the whole micro block is the reference, kept with the tests; the
        # package's dispersion root solvers and eigenfunctions work on the
        # sector blocks alone
        def reads_micro_blocks(node):
            return (isinstance(node, ast.Attribute) and node.attr == "micro_blocks"
                    or isinstance(node, ast.Name) and node.id == "micro_blocks")

        assert _source_places(reads_micro_blocks) == set()
        references = Path(__file__).parent.glob("*_reference.py")
        assert _source_places(reads_micro_blocks, references) == {
            "collision_reference.micro_solve", "dispersion_reference._entries"}

    def test_only_velocity_space_pairs_with_the_density_weight(self):
        # the mode pairing sum f g + f_0 g_0 / s^2 is written once, in
        # velocity_space.bilinear_pair: a function elsewhere that reads the
        # density slot and sums a row holds a second copy of it
        def reads_density_index(node):
            return isinstance(node, ast.Attribute) and node.attr == "density_index"

        def calls_sum(node):
            return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sum")

        both = _source_places(reads_density_index) & _source_places(calls_sum)
        assert both == {"velocity_space.bilinear_pair"}

        # nor does one read a density slot and divide by a wavenumber square
        # (s2, s ** 2, s * s or a wavenumber_squares call), the shape of a gap
        # norm adding |f_0|^2 / s^2 itself; only the operator's Poisson column,
        # in the dense mode matrix and in the sweep's residual, does
        def reads_density_slot(node):
            return (isinstance(node, ast.Attribute)
                    and node.attr in ("density_index", "invariant_indices"))

        def is_square(node):
            if isinstance(node, ast.Name):
                return node.id == "s2"
            if isinstance(node, ast.Call):
                return getattr(node.func, "id", None) == "wavenumber_squares"
            return isinstance(node, ast.BinOp) and (
                (isinstance(node.op, ast.Pow) and getattr(node.right, "value", None) == 2)
                or (isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(node.right)))

        def divides_by_square(node):
            return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                    and is_square(node.right))

        both = _source_places(reads_density_slot) & _source_places(divides_by_square)
        assert both == {"mode_operator.mode_matrix", "dispersion.hydrodynamic_sweep"}

    def test_only_dispersion_writes_the_fluid_subspace(self):
        # the fluid state's constraints, divergence-free momentum and
        # n + n / s^2 + sqrt(2/3) q = 0, are the span of the limit vectors
        # h_0, h_2, h_3; a function elsewhere that writes sqrt(2/3) holds a
        # second copy of that subspace
        root23 = ast.dump(ast.parse("math.sqrt(2.0 / 3.0)", mode="eval").body)
        places = _source_places(lambda node: ast.dump(node) == root23)
        assert {p for p in places if not p.startswith("dispersion.")} == set()

    @pytest.mark.parametrize("subcommand, config", TINY_JOBS)
    def test_jobs_leave_scipy_out(self, subcommand, config, tmp_path):
        # every subcommand, each assembling into an empty cache, runs on numpy
        # alone and loads none of the oracles
        assert _modules_after_job(subcommand, config, tmp_path,
                                  "m.split('.')[0] == 'scipy' or m == 'vpb_spectral.oracles'") == "[]"

    @pytest.mark.parametrize("subcommand, config", [job for job in TINY_JOBS if job[0] != "check"])
    def test_jobs_leave_openssl_and_numpy_polynomial_out(self, subcommand, config, tmp_path):
        # the digests run on CPython's own SHA-256 and the Gauss rules are the
        # package's, so no job loads OpenSSL (hashlib's _hashlib) or
        # numpy.polynomial; check is exempt: np.random.default_rng imports
        # secrets, whose hmac loads _hashlib
        assert _modules_after_job(subcommand, config, tmp_path,
                                  "m == '_hashlib' or m.startswith('numpy.polynomial')") == "[]"

    def test_closed_stdout_pipe_exits_one_without_a_traceback(self, tiny_cfg):
        # unbuffered, so each line is written as it is printed; the pause
        # after the policy line lets the reader close the pipe before the
        # next print
        env = _child_env()
        env["PYTHONUNBUFFERED"] = "1"
        code = ("import sys, time; from vpb_spectral import cli; build = cli.build_operator; "
                "cli.build_operator = lambda cfg: time.sleep(0.5) or build(cfg); "
                "sys.exit(cli.main(sys.argv[1:]))")
        proc = subprocess.Popen([sys.executable, "-c", code, "check", "--config", str(tiny_cfg)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=env)
        assert "BLAS" in proc.stdout.readline()  # the policy line
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("where", ["flag", "config", "parent"])
    def test_out_dir_blocked_by_a_file_is_two_before_any_work(self, where, tmp_path):
        # the directory check runs before the operator is built; the file is
        # left as it was
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker / "sub" if where == "parent" else blocker
        cfg = tmp_path / "job.cfg"
        cfg.write_text(TINY + (f"out_dir = {out}\n" if where == "config" else ""),
                       encoding="utf-8")
        code = ("import sys; from vpb_spectral import cli; "
                "cli.build_operator = lambda cfg: sys.exit('work started'); "
                "sys.exit(cli.main(sys.argv[1:]))")
        args = ["converge", "--config", str(cfg)]
        if where != "config":
            args += ["--out", str(out)]
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, timeout=120, env=_child_env())
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: ") and "'out_dir'" in proc.stderr
        assert proc.stdout == "" and blocker.read_text(encoding="utf-8") == "keep\n"

    def test_cache_dir_naming_a_file_is_one_typed_error(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("keep\n", encoding="utf-8")
        cfg = tmp_path / "job.cfg"
        cfg.write_text("backend = hard_sphere\nmax_degree = 3\n", encoding="utf-8")
        env = _child_env()
        env["VPB_SPECTRAL_CACHE"] = str(blocker)
        proc = subprocess.run(
            [sys.executable, "-m", "vpb_spectral", "transport", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"config error: VPB_SPECTRAL_CACHE={str(blocker)!r} is not a usable "
            "cache directory: File exists"]
        assert not (tmp_path / "out").exists()

    def test_subcommand_listing(self):
        assert SUBCOMMANDS == ("check", "spectrum", "dispersion", "transport",
                               "semigroup", "converge")
