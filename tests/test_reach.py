"""Every function the package defines runs in some subcommand.

The six subcommands run in process on tiny configs, both backends and both
data kinds, under sys.setprofile (threading.setprofile for the convergence
study's pool).  A function or method in src that none of them calls, nested
definitions included, is code no job needs: it belongs with the tests
(oracles.py, the *_reference modules), or on ALLOWED with the reason it
stays.  Lambdas, comprehensions and class bodies are not counted.
"""

import ast
import itertools
import sys
import threading
from pathlib import Path

import pytest

import vpb_spectral
from vpb_spectral import semigroup
from vpb_spectral.cli import SUBCOMMANDS, main
from vpb_spectral.config import BACKENDS, KINDS

SRC = Path(vpb_spectral.__file__).resolve().parent

# dotted name -> why no subcommand calls it
ALLOWED = {
    "errors.DataError.__init__": "bad data reaches no job: the config validator refuses it "
                                 "first; library callers get the error",
}

BASE = {"max_degree": "3", "s_count": "4", "eps_list": "0.2, 0.1, 0.05", "t_max": "4.0",
        "n_layer": "3", "n_bulk": "6", "jobs": "1"}
# each run: (subcommand, fields over BASE, COND_LIMIT or None for the default, exit code)
RUNS = ([(sub, {"backend": backend, "kind": kind}, None, 0)
         for sub, backend, kind in itertools.product(SUBCOMMANDS, BACKENDS, KINDS)]
        + [("converge", {"backend": "synthetic", "kind": "generic", "subtract_layer": "true",
                         "s_spacing": "uniform", "jobs": "2"}, None, 0),
           # the block exponential: every member refused the eig path
           ("converge", {"backend": "synthetic"}, 0.0, 0),
           # refused by the validator: a config error
           ("spectrum", {"t_max": "-1.0"}, None, 2)])


def _definitions() -> dict:
    """{(file, first line): dotted name} for every def in the package,
    methods and nested functions included.  A decorated def starts at its
    first decorator, as its code object does."""
    found = {}

    def visit(node, path, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = ".".join(where + (child.name,))
                visit(child, path, where + (child.name,))
            elif isinstance(child, ast.ClassDef):
                visit(child, path, where + (child.name,))
            else:
                visit(child, path, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, (path.stem,))
    return found


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The (file, first line) of every code object called while the runs ran,
    each run's exit code checked."""
    tmp = tmp_path_factory.mktemp("reach")
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    default = semigroup.COND_LIMIT
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("VPB_SPECTRAL_CACHE", str(tmp / "cache"))  # one empty cache: writes, then reads
        for i, (sub, fields, cond_limit, code) in enumerate(RUNS):
            cfg = tmp / f"run{i}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in dict(BASE, **fields).items()),
                           encoding="utf-8")
            mp.setattr(semigroup, "COND_LIMIT", default if cond_limit is None else cond_limit)
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                assert main([sub, "--config", str(cfg), "--out", str(tmp / "out")]) == code
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def test_every_package_function_runs_in_a_subcommand(reached):
    defined = _definitions()
    unreached = sorted(name for key, name in defined.items()
                       if key not in reached and name not in ALLOWED)
    assert unreached == [], "run in no subcommand: " + ", ".join(unreached)


def test_allowlist_names_only_unreached_definitions(reached):
    defined = _definitions()
    names = {name: key for key, name in defined.items()}
    assert set(ALLOWED) <= set(names)
    assert [n for n in ALLOWED if names[n] in reached] == []
