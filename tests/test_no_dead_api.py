"""No dead API: every function, class and method defined in the library is
referenced by library code outside its own definition.

A reference is a NAME token in `src/tgtransfer` that lies outside the
definition's own lines and outside import statements, and that does not
directly follow `np.`: `np.exp` names numpy's function, not a library
`exp`. Strings and comments are not NAME tokens, so a name that only a
docstring or `__all__` mentions, or that a module only imports, does not
count. Names are matched by spelling, not resolved, so one use of a name
keeps every definition of it. Dunder methods are exempt. `ENTRY_POINTS` lists the names that only code
outside the library calls: the README's Python API, the `tgtransfer`
command's entry point, `benchmarks/` and the acceptance suite.

Spelling cannot tell a library method named like an `np.ndarray` attribute
(`reshape`, `copy`, `size`) from numpy's, since any array use keeps it
alive. `NUMPY_NAMED` lists each such method with a library line that uses
it on a library object, so a new collision fails until it is reviewed.
"""

import ast
import io
import tokenize
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src" / "tgtransfer"

# Names that only code outside the library calls. `run_variant`, one seed's
# run, is called by the README's Python API, `benchmarks/` and the acceptance
# suite, while the CLI runs its seeds through `run_seeds`; every other name
# that the README's Python API, the `tgtransfer` console script (`cli.main`)
# and `benchmarks/` call is also used inside the library.
ENTRY_POINTS = frozenset({"run_variant"})

# "Class.method" of every non-dunder library method named like an
# `np.ndarray` attribute: (module under src/tgtransfer, a line of it that
# uses the method on an instance of that class).
NUMPY_NAMED = {
    "Csr.take": ("cli.py", "g.user_features.take(np.flatnonzero(keep_u)),"),
    "MemoryState.copy": ("tgn.py", "out = state.copy()"),
    "Tensor.ndim": ("numerics/tensor.py", "if x.ndim != 2 or x.shape[1] != w.shape[0]:"),
    "Tensor.reshape": ("tgn.py", "return T.sigmoid(logits.reshape((b,)))"),
    "Tensor.shape": ("tgn.py", "if mem.shape != want:"),
    "Tensor.size": ("numerics/tensor.py", "n = a.size if axis is None else a.shape[axis]"),
}


def _definitions_and_names(text):
    """([(name, first line, last line)] of every def and class, [(NAME token,
    line)] outside import statements and not after `np.`) of one module's
    source."""
    tree = ast.parse(text)
    defs = [
        (node.name, node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    imports = {
        line
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for line in range(node.lineno, node.end_lineno + 1)
    }
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    names = [
        (tok.string, tok.start[0])
        for i, tok in enumerate(tokens)
        if tok.type == tokenize.NAME and tok.start[0] not in imports
        and [t.string for t in tokens[max(i - 2, 0) : i]] != ["np", "."]
    ]
    return defs, names


def dead_definitions(root=SRC, entry_points=ENTRY_POINTS):
    """`path:line name` of every definition under `root` with no reference."""
    facts = {path: _definitions_and_names(path.read_text()) for path in sorted(root.rglob("*.py"))}
    uses: dict = {}
    for path, (_, names) in facts.items():
        for name, line in names:
            uses.setdefault(name, []).append((path, line))
    dead = []
    for path, (defs, _) in facts.items():
        for name, lo, hi in defs:
            if (name.startswith("__") and name.endswith("__")) or name in entry_points:
                continue
            if not any(p != path or not lo <= line <= hi for p, line in uses.get(name, ())):
                dead.append(f"{path.relative_to(root.parent)}:{lo} {name}")
    return dead


def test_every_library_definition_is_referenced():
    assert dead_definitions() == []


def numpy_named_methods(root=SRC):
    """"Class.method" of every non-dunder method of a class under `root`
    whose name is an attribute of `np.ndarray`."""
    array_names = set(dir(np.ndarray))
    return {
        f"{node.name}.{item.name}"
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in array_names
        and not (item.name.startswith("__") and item.name.endswith("__"))
    }


def test_numpy_named_methods_are_listed_with_a_use():
    assert numpy_named_methods() == set(NUMPY_NAMED)
    for key, (module, line) in NUMPY_NAMED.items():
        lines = {text.strip() for text in (SRC / module).read_text().splitlines()}
        assert line in lines and f".{key.split('.')[1]}" in line, key


def test_numpy_named_methods_finds_collisions(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "class Box:\n"
        "    def copy(self):\n"
        "        return Box()\n"
        "\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def open(self):\n"
        "        return self\n"
    )
    assert numpy_named_methods(pkg) == {"Box.copy"}


def test_guard_ignores_strings_comments_imports_and_own_body(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        '"""used() is named here only in a docstring."""\n'
        "def used():\n"
        "    return 1\n"
        "\n"
        "def recursive(n):\n"
        "    # used() in a comment\n"
        "    return recursive(n - 1) if n else 'used'\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def open(self):\n"
        "        return Box\n"
    )
    (pkg / "b.py").write_text("from .a import Box, recursive, used\n\nVALUE = used() + len(Box())\n")
    assert dead_definitions(pkg, frozenset({"open"})) == ["pkg/a.py:5 recursive"]
    assert dead_definitions(pkg, frozenset()) == ["pkg/a.py:5 recursive", "pkg/a.py:13 open"]


def test_guard_ignores_numpy_attributes(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("def exp(x):\n    return x\n\ndef cos(x):\n    return x\n")
    (pkg / "b.py").write_text("import numpy as np\n\nVALUE = np.exp(1.0) + cos(np.cos(0.0))\n")
    assert dead_definitions(pkg, frozenset()) == ["pkg/a.py:1 exp"]
