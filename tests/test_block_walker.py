"""The one-walker rule: only kernels slices an n^2-scale array into row blocks.

Every pass over a Gram, its normalization and a caller's matrix runs on
``kernels.map_blocks`` (the kernels module notes), so the block sizes and the
rule that sizes them are named in one module. This test fails on any other
module that names ``row_blocks``, ``READ_BLOCK_BYTES`` or ``BLOCK_BYTES``,
whether imported from kernels or read as an attribute of it, and on a
symmetrizing pass of its own beside ``kernels._mirror_upper``.
"""

import ast
import pathlib

import pytest

import spectral_series

PACKAGE = pathlib.Path(spectral_series.__file__).parent

BLOCK_NAMES = {"row_blocks", "READ_BLOCK_BYTES", "BLOCK_BYTES"}
OTHER_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "kernels.py")


def block_names(source: str) -> list[tuple[str, int]]:
    """(name, line) for each import or attribute read of a block name in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(alias.name, node.lineno) for alias in node.names
                      if alias.name in BLOCK_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in BLOCK_NAMES:
            found.append((node.attr, node.lineno))
    return found


def test_scanner_sees_every_form():
    src = (
        "from .kernels import KernelSpec, row_blocks\n"
        "from spectral_series.kernels import READ_BLOCK_BYTES as size\n"
        "from . import kernels\n"
        "def f(m, n):\n"
        "    return kernels.BLOCK_BYTES, list(kernels.row_blocks(m, n))\n"
    )
    assert sorted(block_names(src)) == [("BLOCK_BYTES", 5), ("READ_BLOCK_BYTES", 2),
                                        ("row_blocks", 1), ("row_blocks", 5)]
    assert block_names("from .kernels import map_blocks, _mirror_upper\n") == []


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda p: p.name)
def test_no_block_walk_outside_kernels(path):
    stray = block_names(path.read_text())
    assert not stray, (
        f"{path.name}: {stray}; walk n^2-scale arrays through kernels.map_blocks "
        "(or kernels._blocks_with_sums), not with block sizes of its own"
    )


def test_kernels_mirror_is_the_only_mirror():
    # the symmetry check of a caller's matrix scans on the walker and then
    # mirrors with the Grams' own pass; it keeps no tile loop or tile size
    from spectral_series import diffusion

    assert not hasattr(diffusion, "SYMMETRY_TILE")
    assert "_mirror_upper" in diffusion._check_symmetric.__code__.co_names
    defined = [(p.name, node.name) for p in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.FunctionDef) and "mirror" in node.name]
    assert defined == [("kernels.py", "_mirror_upper")]
