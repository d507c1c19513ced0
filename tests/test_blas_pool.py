"""The one-pool rule: every dense product runs on scipy's BLAS.

numpy and scipy load separate OpenBLAS builds with separate thread pools, and
a process that alternates between them stalls on each hand-over. So the
package routes its products through ``kernels.matmul`` and its factorizations
through ``scipy.linalg``; this test fails on any numpy product or
``np.linalg`` use outside the allowlist below.
"""

import ast
import pathlib

import pytest

import spectral_series

PACKAGE = pathlib.Path(spectral_series.__file__).parent

NUMPY_PRODUCTS = {"np.matmul", "np.dot", "np.inner", "np.tensordot"}

# (file, function, call): why it may stay on numpy
ALLOWED = {
    # the rotation's bits fix the generated data, and so the benchmark inputs
    ("dataset.py", "gen_circle", "np.linalg.qr"),
    # row norms are a reduction, no BLAS call
    ("dataset.py", "_unit_rows", "np.linalg.norm"),
}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def numpy_products(source: str) -> list[tuple[str, str, int]]:
    """(function, what, line) for each numpy product in source."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name in NUMPY_PRODUCTS or (name or "").startswith("np.linalg."):
                what = name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module == "numpy.linalg" or any(
                    f"np.{a.name}" in NUMPY_PRODUCTS or a.name == "linalg"
                    for a in node.names):
                what = f"from {node.module} import"
        if what is not None:
            found.append((scope, what, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_scanner_sees_every_form():
    src = (
        "import numpy as np\n"
        "from numpy.linalg import solve\n"
        "def f(a, b):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    return np.dot(a, b) + np.inner(a, b) + np.tensordot(a, b) + np.matmul(a, b)\n"
        "class M:\n"
        "    def g(self, a):\n"
        "        return np.linalg.solve(a, a), np.linalg.LinAlgError\n"
    )
    whats = sorted(w for _, w, _ in numpy_products(src))
    assert whats == sorted([
        "from numpy.linalg import", "@", "@", "np.dot", "np.inner", "np.tensordot",
        "np.matmul", "np.linalg.solve", "np.linalg.LinAlgError",
    ])
    assert ("M.g", "np.linalg.solve", 9) in numpy_products(src)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_product_outside_the_allowlist(path):
    stray = [(scope, what, line) for scope, what, line in numpy_products(path.read_text())
             if (path.name, scope, what) not in ALLOWED]
    assert not stray, (
        f"{path.name}: numpy products {stray}; route them through kernels.matmul "
        "or scipy.linalg so they run on scipy's BLAS pool"
    )


def test_allowlist_entries_still_exist():
    # a stale entry would let a new product in under an old excuse
    seen = {(p.name, scope, what) for p in PACKAGE.glob("*.py")
            for scope, what, _ in numpy_products(p.read_text())}
    assert ALLOWED <= seen
