"""The package namespace and __all__ describe the same public surface."""

import ast
import re
import types
from pathlib import Path

import opintegral


def test_all_names_resolve_and_every_public_attribute_is_listed():
    listed = set(opintegral.__all__)
    assert len(listed) == len(opintegral.__all__), "duplicate names in __all__"
    missing = sorted(n for n in listed if not hasattr(opintegral, n))
    assert not missing, f"__all__ names that do not resolve: {missing}"
    public = {n for n, v in vars(opintegral).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert not public - listed, f"public names missing from __all__: {sorted(public - listed)}"


#: public names kept with no caller in the library, each a claim of the paper that
#: the tests check (ROADMAP item 10), with the reason it stays public
CLAIMS = {
    "double_operator_integral": "the double operator integral of the one-variable "
                                "calculus (tests/test_doi.py)",
    "one_var_commutator_identity": "f(A)Q - Qf(B) as a double operator integral, exact "
                                   "to rounding (tests/test_commutator.py, tests/test_doi.py)",
    "s1_certificate": "the trace-norm certificate of a triple integral (criteria 02-04); "
                      "ROADMAP item 9 joins it to the commutator reports",
}


def test_every_public_name_is_used_outside_the_tests():
    """A public name is read somewhere in the library outside its own top-level
    definition (a Name or Attribute node, so docstrings do not count), or
    perfbench/ names it, or it is a kept claim; anything else is test-only code
    and belongs in tests/oracles.py."""
    src = Path(opintegral.__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    bench = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py")))
    unused = [name for name in opintegral.__all__
              if name not in used and name not in CLAIMS
              and not re.search(rf"\b{name}\b", bench)]
    assert not unused, f"public names only the tests use: {unused}"
