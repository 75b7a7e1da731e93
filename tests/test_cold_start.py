"""scipy stays off the import path: only a Cholesky factorization or triangular solve loads it.

Each case runs in a fresh interpreter, since this process has imported
scipy long ago.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmsubspace
from mmsubspace.model import save_problem
from conftest import instance_grid

SRC = str(Path(mmsubspace.__file__).resolve().parents[1])


def fresh(code: str, *args: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports this copy of the package."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


SOLVE = """
import sys
from mmsubspace import cli
cli.main(["solve", "--problem", *sys.argv[1:]])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:1])
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "p.json"
    save_problem(instance_grid(seed=3, dims=(4,), kinds=["hyperbolic"])[0], path)
    return str(path)


def test_importing_the_cli_imports_no_scipy():
    assert fresh("import sys, mmsubspace.cli; print('scipy' in sys.modules)") == "False"


@pytest.mark.parametrize("stream", ["constant", "geometric:0.9"])
def test_a_plain_solve_imports_no_scipy(problem_file, stream):
    assert fresh(SOLVE, problem_file, "--stream", stream) == "[]"


def test_a_certified_solve_imports_scipy(problem_file):
    assert fresh(SOLVE, problem_file, "--certify") == "['scipy']"


def test_the_kernels_read_before_any_call():
    code = "from mmsubspace import linalg; print(linalg._potrf, linalg._potrs, linalg._trtrs)"
    assert fresh(code) == ("<fortran function dpotrf> <fortran function dpotrs> "
                           "<fortran function dtrtrs>")


def test_a_kernel_set_before_any_call_is_kept():
    code = """
import numpy as np
from mmsubspace import linalg
calls = []
linalg._potrf = lambda M, lower: calls.append(M) or (np.linalg.cholesky(M), 0)
linalg.pd_solve(np.diag([1.0, 4.0]), np.ones(2))
print(len(calls), linalg._potrs)
"""
    assert fresh(code) == "1 <fortran function dpotrs>"
