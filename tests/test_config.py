"""Config parsing, validation, and digest stability."""

import dataclasses
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpb_spectral.config import (
    BACKENDS,
    MAX_DEGREE,
    SCHEMA_VERSION,
    ExperimentConfig,
    apply_overrides,
    parse_config,
    validate_config,
)
from vpb_spectral.errors import ConfigError


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_defaults_are_valid(self):
        validate_config(ExperimentConfig(), source="defaults")

    def test_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, "\n".join([
            "# experiment sweep",
            "backend = hard_sphere",
            "max_degree = 6",
            "gamma = 0.5",
            "eps_list = 0.2, 0.1, 0.05, 0.025",
            "s_count = 16",
            "subtract_layer = true",
            "kind = generic",
            "out_dir = runs/a",
            "",
        ]))
        cfg = parse_config(path)
        assert cfg.backend == "hard_sphere"
        assert cfg.max_degree == 6
        assert cfg.gamma == 0.5
        assert cfg.eps_list == (0.2, 0.1, 0.05, 0.025)
        assert cfg.s_count == 16
        assert cfg.subtract_layer is True
        assert cfg.kind == "generic"
        assert cfg.out_dir == "runs/a"
        # untouched fields keep their defaults
        assert cfg.s_spacing == "legendre"
        assert cfg.schema == SCHEMA_VERSION

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write_cfg(tmp_path, "\n# comment\n\nmax_degree = 3  # trailing\n\n")
        assert parse_config(path).max_degree == 3

    def test_eps_list_space_separated(self, tmp_path):
        path = write_cfg(tmp_path, "eps_list = 0.4 0.2 0.1\n")
        assert parse_config(path).eps_list == (0.4, 0.2, 0.1)

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("Yes", True), ("1", True), ("on", True),
        ("false", False), ("No", False), ("0", False), ("off", False),
    ])
    def test_bool_spellings(self, tmp_path, raw, expected):
        path = write_cfg(tmp_path, f"subtract_layer = {raw}\n", name=f"b_{raw}.cfg")
        assert parse_config(path).subtract_layer is expected

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(tmp_path / "absent.cfg")


class TestDiagnostics:
    """Every parse failure must name the file, line, and offending field."""

    def test_missing_equals(self, tmp_path):
        path = write_cfg(tmp_path, "backend = synthetic\nmax_degree 4\n")
        with pytest.raises(ConfigError, match=rf"{path.name}:2: expected key = value"):
            parse_config(path)

    def test_unknown_field(self, tmp_path):
        path = write_cfg(tmp_path, "bandwidth = 3\n")
        with pytest.raises(ConfigError, match=rf"{path.name}:1: unknown field 'bandwidth'"):
            parse_config(path)

    def test_duplicate_field(self, tmp_path):
        path = write_cfg(tmp_path, "jobs = 1\njobs = 2\n")
        with pytest.raises(ConfigError, match=rf"{path.name}:2: duplicate field 'jobs'"):
            parse_config(path)

    def test_bad_int(self, tmp_path):
        path = write_cfg(tmp_path, "max_degree = frog\n")
        with pytest.raises(ConfigError, match=rf"{path.name}:1: field 'max_degree'"):
            parse_config(path)

    def test_empty_eps_list(self, tmp_path):
        path = write_cfg(tmp_path, "eps_list =\n")
        with pytest.raises(ConfigError, match="empty list"):
            parse_config(path)


class TestValidate:
    def check_rejected(self, field, message_part, **kw):
        cfg = dataclasses.replace(ExperimentConfig(), **kw)
        with pytest.raises(ConfigError, match=message_part) as err:
            validate_config(cfg, source="unit")
        assert f"'{field}'" in str(err.value)

    def test_schema(self):
        self.check_rejected("schema", "unsupported schema", schema=99)

    def test_backend(self):
        self.check_rejected("backend", "not one of", backend="lattice")

    def test_max_degree(self):
        self.check_rejected("max_degree", "at least 2", max_degree=1)

    def test_max_degree_above_the_measured_range(self):
        validate_config(dataclasses.replace(ExperimentConfig(), max_degree=MAX_DEGREE))
        self.check_rejected("max_degree", f"17 is above {MAX_DEGREE}", max_degree=MAX_DEGREE + 1)

    def test_eps_above_one(self):
        # the scaling parameter lives in the open unit interval; the message
        # must say so because this is the error users will actually hit
        self.check_rejected("eps_list", r"open interval \(0, 1\)",
                            eps_list=(0.2, 1.2))

    def test_eps_zero(self):
        self.check_rejected("eps_list", r"\(0, 1\)", eps_list=(0.0,))

    def test_shell_interval(self):
        self.check_rejected("s_min", "0 < s_min < s_max", s_min=0.7, s_max=0.6)

    def test_kind(self):
        self.check_rejected("kind", "not one of", kind="random")

    def test_jobs(self):
        self.check_rejected("jobs", "at least 1", jobs=0)

    FLOAT_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)
                    if f.type in ("float", float)]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", FLOAT_FIELDS + ["eps_list"])
    def test_non_finite_float_names_its_field(self, field, value):
        bad = (0.2, value) if field == "eps_list" else value
        self.check_rejected(field, "non-finite value", **{field: bad})

    @pytest.mark.parametrize("field", ["gamma", "kernel_c", "nu_bar"])
    def test_kernel_parameter_names_its_field(self, field):
        self.check_rejected(field, "must be positive", **{field: 0.0})

    def test_file_level_validation(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eps_list = 1.5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"{path.name}.*\(0, 1\)"):
            parse_config(path)


class TestDigest:
    def test_format(self):
        d = ExperimentConfig().digest()
        assert len(d) == 12
        assert all(c in "0123456789abcdef" for c in d)

    def test_stable_across_instances(self):
        assert ExperimentConfig().digest() == ExperimentConfig().digest()

    def test_covers_every_field(self):
        lines = ExperimentConfig().canonical_lines()
        names = {line.split("=", 1)[0] for line in lines}
        assert names == {f.name for f in dataclasses.fields(ExperimentConfig)}

    @given(st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)
                            if f.name != "schema"]))
    @settings(max_examples=25, deadline=None)
    def test_any_field_change_moves_digest(self, name):
        base = ExperimentConfig()
        old = getattr(base, name)
        if isinstance(old, bool):
            new = not old
        elif isinstance(old, int):
            new = old + 1
        elif isinstance(old, float):
            new = old * 2.0 + 0.001
        elif isinstance(old, tuple):
            new = old + (0.3,)
        else:
            new = old + "_x"
        assert dataclasses.replace(base, **{name: new}).digest() != base.digest()

    def test_float_rendering_is_exact(self):
        # %.17g keeps the digest sensitive to the last bit of a float field
        a = ExperimentConfig(gamma=0.1)
        b = ExperimentConfig(gamma=0.1 + 2 ** -54)
        assert a.digest() != b.digest()


class TestOverrides:
    def test_none_means_keep(self):
        cfg = ExperimentConfig()
        assert apply_overrides(cfg, backend=None, jobs=None) is cfg

    def test_applied(self):
        cfg = apply_overrides(ExperimentConfig(), backend="hard_sphere", jobs=4)
        assert cfg.backend == "hard_sphere"
        assert cfg.jobs == 4

    def test_revalidated(self):
        with pytest.raises(ConfigError, match="command line"):
            apply_overrides(ExperimentConfig(), backend="bogus")

    def test_backends_tuple_fixed(self):
        assert BACKENDS == ("synthetic", "hard_sphere")


class TestReadme:
    def test_config_table_names_every_field_once(self):
        # the key column of README's config table, one or more `key` per row
        lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | default | meaning |") + 2
        keys = Counter()
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        assert keys == Counter(f.name for f in dataclasses.fields(ExperimentConfig))
