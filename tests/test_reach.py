"""The public ``src/`` names that no command reaches, pinned with the
reason each one stays.

A static walk over the ASTs of ``src/lcltflow``: it starts from
``cli.main``, the functions of ``cli._COMMANDS`` and the statements that
run at import (module level, outside any def or class), and follows every
``Name`` or ``Attribute`` whose identifier is that of a def in the package,
whatever module or class the def is in.  A reached class brings in its
bases, decorators, class-body statements and dunder methods; its other
methods are reached by name.  This over-approximates what runs, so a name
it leaves out is called by no command.  Such a name fails the test unless
the table below gives the caller that keeps it (a ``perfbench/`` script)
or the open ROADMAP item that will wire it to a command or move it to a
``tests/`` reference; and a listed name that gains a caller fails it too.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "lcltflow")

UNREACHED = {
    "montecarlo.estimate_mlclt": "perfbench/spans.py",
    "montecarlo.sample_flow_integrals": "perfbench/spans.py",
    "renewal_exact.dp_distribution": "perfbench/spans.py",
    "spectral.EigenCurve": "perfbench/oracles.py",
    "spectral.expansion_fit": "perfbench/oracles.py",
    "spectral.fourier_lclt": "perfbench/oracles.py",
    "spectral.unit_modulus_scan": "item 3: classify's cross-check",
    "systems.RenewalBase.ball_masses": "item 21: base verify's oracle",
    "systems.RenewalBase.moderate_dev_table": "item 21: base verify's row",
}


def _identifiers(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _package():
    """(defs, roots, public): every def of the package by name (module
    level and class level), the statements that run at import (among them
    ``cli._COMMANDS`` and ``cli``'s call of ``main``), and the identifier
    of each public def by its dotted name."""
    defs, roots, public = {}, [], {}
    for fn in sorted(os.listdir(SRC)):
        if not fn.endswith(".py"):
            continue
        module = fn[:-3]
        with open(os.path.join(SRC, fn)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                roots.append(node)
                continue
            scope = [(node, f"{module}.{node.name}")]
            if isinstance(node, ast.ClassDef):
                scope += [(sub, f"{module}.{node.name}.{sub.name}")
                          for sub in node.body
                          if isinstance(sub, ast.FunctionDef)]
            for d, dotted in scope:
                defs.setdefault(d.name, []).append(d)
                if not d.name.startswith("_"):
                    public[dotted] = d.name
    return defs, roots, public


def _reached(defs, roots):
    """The identifiers reached from ``main`` and the roots."""
    seen = set()
    todo = ["main"] + [name for node in roots for name in _identifiers(node)]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for d in defs.get(name, ()):
            if isinstance(d, ast.ClassDef):
                parts = d.bases + d.decorator_list + [
                    s for s in d.body if not isinstance(s, ast.FunctionDef)
                    or s.name.startswith("__")]
            else:
                parts = [d]
            todo.extend(name for p in parts for name in _identifiers(p))
    return seen


def test_unreached_public_names_are_the_pinned_ones():
    defs, roots, public = _package()
    seen = _reached(defs, roots)
    assert "cmd_verify" in seen and "estimate_sigma" in seen
    unreached = sorted(dotted for dotted, name in public.items()
                       if name not in seen)
    assert unreached == sorted(UNREACHED)
    assert all(UNREACHED.values())
