"""Registry-consistency rules (R3xx): no orphaned registry names.

The experiment stack is organized around registries — activation
daemons, cost metrics, the six scenario-model axes, executor backends
and round engines.  A name that is registered but unreachable from the
CLI, undocumented, or untested is a trap: it can silently rot (nothing
exercises it) while still being selectable in a campaign grid.

The contract the checker consumes is the literal ``REGISTRY_AXES``
table in ``<package>/contracts.py`` (see :mod:`repro.contracts`), which
declares for every axis the defining module, the canonical names
symbol, the lookup entry point, and the registered names themselves.
``repro.contracts.verify_registry_contract()`` keeps the literal table
honest against the live registries at test time; these rules keep the
*ecosystem* honest against the table:

* ``R301`` — the declared registry module or names symbol does not
  exist (stale contract);
* ``R302`` — a registered name is never mentioned in the README or any
  file under ``docs/`` (case-insensitive): users cannot discover it;
* ``R303`` — a registered name never appears as a quoted literal in any
  test: nothing pins its behavior;
* ``R304`` — neither the axis's lookup entry point nor its names symbol
  is referenced by the experiments/CLI layer: the axis is not reachable
  from campaign validation at all.
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.lint.base import Finding, Project

__all__ = ["check_registries"]

_REQUIRED_KEYS = ("module", "symbol", "lookup", "names")


def _symbol_defined(tree: ast.AST, symbol: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == symbol:
                    return True
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == symbol
            ):
                return True
    return False


def check_registries(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    contracts = project.source("contracts.py")
    if contracts is None or contracts.parse_error:
        return findings
    assert contracts.tree is not None

    axes = None
    line = 1
    for node in ast.walk(contracts.tree):
        if isinstance(node, ast.Assign):
            hit = any(
                isinstance(t, ast.Name) and t.id == "REGISTRY_AXES"
                for t in node.targets
            )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            hit = (
                isinstance(node.target, ast.Name)
                and node.target.id == "REGISTRY_AXES"
            )
        else:
            continue
        if hit:
            line = node.lineno
            try:
                axes = ast.literal_eval(node.value)
            except (ValueError, TypeError, SyntaxError):
                axes = None
            break
    if not isinstance(axes, dict):
        findings.append(
            Finding(
                "R301",
                contracts.rel,
                line,
                "REGISTRY_AXES literal dict not found in contracts.py",
            )
        )
        return findings

    docs = project.doc_text()
    tests = project.test_text()
    experiments_text = _experiments_text(project)

    for axis, decl in sorted(axes.items()):
        if not isinstance(decl, dict) or any(
            key not in decl for key in _REQUIRED_KEYS
        ):
            findings.append(
                Finding(
                    "R301",
                    contracts.rel,
                    line,
                    f"axis {axis!r} must declare "
                    f"{', '.join(_REQUIRED_KEYS)}",
                )
            )
            continue
        module_rel = str(decl["module"])
        symbol = str(decl["symbol"])
        lookup = str(decl["lookup"])
        names = decl["names"]
        module_src = project.source(module_rel)
        if module_src is None:
            findings.append(
                Finding(
                    "R301",
                    contracts.rel,
                    line,
                    f"axis {axis!r} declares module {module_rel!r} which "
                    "does not exist in the linted package",
                )
            )
        elif module_src.tree is not None and not _symbol_defined(
            module_src.tree, symbol
        ):
            findings.append(
                Finding(
                    "R301",
                    contracts.rel,
                    line,
                    f"axis {axis!r}: symbol {symbol!r} is not assigned in "
                    f"{module_rel}",
                )
            )
        for name in names if isinstance(names, (tuple, list)) else ():
            name = str(name)
            if name.lower() not in docs:
                findings.append(
                    Finding(
                        "R302",
                        contracts.rel,
                        line,
                        f"registered {axis} name {name!r} is not mentioned "
                        "in README.md or docs/ — users cannot discover it",
                    )
                )
            if f'"{name}"' not in tests and f"'{name}'" not in tests:
                findings.append(
                    Finding(
                        "R303",
                        contracts.rel,
                        line,
                        f"registered {axis} name {name!r} is not referenced "
                        "by any test — nothing pins its behavior",
                    )
                )
        # An axis is wired into campaign validation through either its
        # lookup entry point or its canonical names symbol (the daemon
        # axis validates against DAEMON_NAMES and defers construction
        # to the engine layer, for example).
        if lookup not in experiments_text and symbol not in experiments_text:
            findings.append(
                Finding(
                    "R304",
                    contracts.rel,
                    line,
                    f"axis {axis!r}: neither lookup {lookup!r} nor symbol "
                    f"{symbol!r} is referenced by the experiments/CLI layer "
                    "— the axis is not reachable from campaign validation",
                )
            )
    return findings


def _experiments_text(project: Project) -> str:
    """Concatenated source of the experiments/CLI layer of the package."""
    chunks: List[str] = []
    for src in project.sources():
        rel_pkg = src.path.relative_to(project.package_root).as_posix()
        if rel_pkg.startswith("experiments/"):
            chunks.append(src.text)
    return "\n".join(chunks)
