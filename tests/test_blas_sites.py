"""A ratchet on the package's BLAS and LAPACK calls.

Matrix products and LAPACK routines pick their kernels by CPU, so their last
bits differ between hosts.  The calls that remain are listed below by module
and enclosing function; a new one fails tier-1, and so does a listed one that
is gone, so that the list only shrinks as the calls are replaced.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "chaosco"

#: call names that reach BLAS or LAPACK, besides ``@`` and anything under ``linalg``
BLAS_CALLS = frozenset({"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "polyfit"})

#: module -> (enclosing function, call) of every BLAS or LAPACK call it may make, one
#: entry per call
ALLOWED = {
    "chaos.py": [("ChaosExpansion.sobolev_classes", "@")],
    "clark_ocone.py": [("_tail_mass_table", "@"), ("err_norm_refined", "@"),
                       ("fit_loglog_slope", "np.polyfit")],
    "hermite.py": [("gauss_hermite_rule", "np.linalg.eigvalsh")],
    "montecarlo.py": [("PolynomialPayoff.hermite_coeffs", "@"),
                      ("PolynomialPayoff.conditional_delta.delta", "np.matmul"),
                      ("occupation_error_norm", "@")],
}


def _dotted(node):
    """The names of an attribute chain, outermost last: ``np.linalg.eigvalsh`` -> 3 names."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names[::-1]


def _blas_sites(text):
    """(enclosing function, call) of each ``@`` or BLAS/LAPACK call, in source order.

    The function is the dotted path of the classes and functions around the
    call, "" at module level; the call is "@", its dotted name, or the
    import of names from a ``linalg`` module.
    """
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((".".join(scope), "@"))
        elif isinstance(node, ast.Call):
            names = _dotted(node.func)
            if names and (names[-1] in BLAS_CALLS or "linalg" in names):
                sites.append((".".join(scope), ".".join(names)))
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "").split("."):
            # a name imported from linalg is called by its bare name
            sites.append((".".join(scope), f"from {node.module} import"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(text), ())
    return sites


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_blas_call_beyond_the_allow_list(path):
    # counted, so that a second call in a listed function is new
    sites, allowed = Counter(_blas_sites(path.read_text())), Counter(ALLOWED.get(path.name, []))
    assert sites - allowed == Counter(), "new BLAS or LAPACK call"
    assert allowed - sites == Counter(), "stale allow-list entry"


def test_blas_site_check_catches_planted_calls():
    text = (
        "import numpy as np\n"
        "from numpy.linalg import solve\n"
        "x = a @ b\n"
        "class C:\n"
        "    def f(self, a):\n"
        "        def g(b):\n"
        "            b @= a\n"
        "            return np.dot(a, b) + a.dot(b) + np.einsum('i,i', a, b)\n"
        "        return np.linalg.norm(a), solve(a, a), np.sum(a * a), np.inner(a, a)\n"
        "def h(a):\n"
        "    return np.polyfit(a, a, 1), np.tensordot(a, a), np.vdot(a, a), a.matmul(a)\n"
    )
    assert _blas_sites(text) == [
        ("", "from numpy.linalg import"), ("", "@"),
        ("C.f.g", "@"), ("C.f.g", "np.dot"), ("C.f.g", "a.dot"), ("C.f.g", "np.einsum"),
        ("C.f", "np.linalg.norm"), ("C.f", "np.inner"),
        ("h", "np.polyfit"), ("h", "np.tensordot"), ("h", "np.vdot"), ("h", "a.matmul"),
    ]
