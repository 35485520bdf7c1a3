"""Every module of ``src/lcltflow`` and ``tests/`` uses each name it
imports, and no module of ``src/lcltflow`` imports OpenSSL.

A static walk over each file's AST, stdlib only: every name an import
binds (``import a.b`` binds ``a``, ``from m import x as y`` binds ``y``)
must appear somewhere in the module as a ``Name``, which is also the root
of every ``Attribute`` chain.  ``from __future__ import annotations`` binds
nothing and is exempt.  ``hashlib`` loads OpenSSL's libcrypto (several MB
of a process's memory), and ``hmac`` and ``secrets`` load ``hashlib``: the
package's checksums come from CPython's own SHA-256 instead.
"""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "lcltflow")
DIRS = [SRC, os.path.join(ROOT, "tests")]
OPENSSL = {"hashlib", "hmac", "secrets"}


def _modules(dirs=DIRS):
    return sorted(os.path.relpath(os.path.join(d, fn), ROOT)
                  for d in dirs for fn in os.listdir(d) if fn.endswith(".py"))


def unused_imports(source):
    """The names ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    return [name for name in bound if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
        "np.zeros(os.sep)\nprint(tau.real)\n") == ["pi"]


@pytest.mark.parametrize("path", _modules())
def test_every_import_is_used(path):
    with open(os.path.join(ROOT, path)) as fh:
        assert unused_imports(fh.read()) == []


def imported_modules(source):
    """The top-level names of the absolute imports in ``source``."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_check_finds_an_openssl_import():
    assert imported_modules(
        "import os.path, hmac\nfrom .config import x\n"
        "def f():\n    from hashlib import sha256\n") & OPENSSL == \
        {"hashlib", "hmac"}


@pytest.mark.parametrize("path", _modules([SRC]))
def test_no_module_imports_openssl(path):
    with open(os.path.join(ROOT, path)) as fh:
        assert imported_modules(fh.read()) & OPENSSL == set()
