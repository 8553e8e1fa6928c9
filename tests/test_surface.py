"""Every public definition in src/ellipreg is reached from src/ itself.

A top-level function or class, or a non-dunder method, that nothing in the
package names is code only the tests read: delete it, or move it under
tests/ when a test compares shipped code against it.  References are
matched by name, so two definitions that share a name count as reached
when either is named.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ellipreg"

ENTRY_POINT = "cli.main"

# kept although nothing in src/ names them, each with its reason
ALLOWED = {
    "condition_A_minus_I": "acceptance criterion 12 runs it",
    "gronwall_bound_check": "acceptance gate subject: the growth-bound ratio",
    "perturbation_equivalence": "acceptance gate subject: perturbed-radial fields",
    "limit_as_float": "acceptance criterion 06 reads the square-Dini limit",
    "power_modulus": "field constructor every test fixture builds on",
    "inv_log_modulus": "field constructor every test fixture builds on",
    "make_custom": "field constructor every test fixture builds on",
}


def _unreached():
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, top.name))
            if isinstance(top, ast.ClassDef):
                defined += [(f"{path.stem}.{top.name}", d.name) for d in top.body
                            if isinstance(d, ast.FunctionDef)
                            and not (d.name.startswith("__") and d.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return {f"{owner}.{name}": name for owner, name in defined
            if name not in used and f"{owner}.{name}" != ENTRY_POINT}


def test_every_definition_is_reached_from_src():
    stray = sorted(q for q, name in _unreached().items() if name not in ALLOWED)
    assert not stray, "referenced nowhere in src/: " + ", ".join(stray)


def test_allowlist_names_only_unreached_definitions():
    assert sorted(_unreached().values()) == sorted(ALLOWED)
