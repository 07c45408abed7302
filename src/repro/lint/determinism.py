"""Determinism rules (D1xx): the deterministic core must stay replayable.

Every guarantee in this reproduction — bit-identical trajectories across
engines, resume-safe config-hash caching — rests on the *deterministic
core* (``repro.core``, ``repro.graph``, ``repro.protocols``,
``repro.sim``, ``repro.energy``, ``repro.net``) deriving every value
from the scenario seed and nothing else.  These rules forbid the ways
ambient state leaks in:

``D101`` wall-clock reads
    ``time.time()`` / ``time.time_ns()`` / ``datetime.now()`` /
    ``utcnow()`` / ``today()``.  The profiling clocks
    (``time.perf_counter`` / ``time.monotonic``) stay legal: they may
    time work but their values must never flow into simulation state —
    that contract is enforced by the bit-identity test matrix, not here.

``D102`` unseeded randomness
    Module-level ``random.*`` calls (global hidden state), the legacy
    ``numpy.random.*`` module API, and ``numpy.random.default_rng()``
    with no seed argument.  Only :mod:`repro.util.rng` streams (or an
    explicitly seeded generator) are allowed in the core.

``D103`` environment reads
    ``os.environ`` / ``os.getenv`` outside the files listed in
    :data:`ENV_SHIM_FILES` (the experiments layer is outside the core
    scope altogether).  An env-dependent branch in the
    core silently forks trajectories between machines.

``D104`` order-sensitive iteration over sets
    Materializing a set into a sequence (``list(s)`` / ``tuple(s)``, a
    list comprehension over a set, a ``for`` over a set whose body
    appends/yields) puts hash-iteration order — which varies with
    ``PYTHONHASHSEED`` for str-keyed sets and with insertion history
    everywhere — into state.  Folding a set into another set, counting,
    or membership tests are order-insensitive and stay legal, as does
    ``sorted(s)``.  (Python dicts iterate in insertion order and are
    not flagged.)

``D105`` ad-hoc stream labels
    ``streams.get(f"mac.{i}")``-style composed labels and arithmetic on
    seeds.  Use :meth:`repro.util.rng.RngStreams.derive`, which owns the
    label composition in one audited place.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.base import Finding, Project, Source

__all__ = ["check_determinism", "CORE_PACKAGES", "ENV_SHIM_FILES"]

#: package-root-relative directories making up the deterministic core
CORE_PACKAGES = ("core", "graph", "protocols", "sim", "energy", "net")

#: package-root-relative files allowed to read the environment
#: (everything under experiments/ is out of scope)
ENV_SHIM_FILES = ("core/kernels.py",)

#: normalized dotted callables that read the wall clock
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: numpy.random attributes that are legal in the core (generator types
#: and explicitly seeded construction)
_NP_RANDOM_OK = {
    "numpy.random.Generator",
    "numpy.random.BitGenerator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.default_rng",  # flagged separately when called seedless
}


class _ImportMap(ast.NodeVisitor):
    """Alias -> dotted module/attribute map for one module."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _normalize(dotted: str, aliases: Dict[str, str]) -> str:
    head, _, rest = dotted.partition(".")
    head = aliases.get(head, head)
    if head == "np":
        head = "numpy"
    return f"{head}.{rest}" if rest else head


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Whether ``node`` statically denotes a set value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


def _local_set_names(scope: ast.AST) -> Set[str]:
    """Names assigned a set expression anywhere in ``scope`` (one level
    of inference: enough to catch ``s = set(...) ... list(s)``)."""
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.FunctionDef) and node is not scope:
            continue  # nested scopes run their own pass
        if isinstance(node, ast.Assign) and _is_set_expr(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value, names) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
    return names


def _body_materializes_order(body: List[ast.stmt]) -> bool:
    """Whether a loop body leaks iteration order into a sequence."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in ("append", "extend", "insert"):
                    return True
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, src: Source, env_shim: bool) -> None:
        self.src = src
        self.env_shim = env_shim
        self.findings: List[Finding] = []
        self.aliases: Dict[str, str] = {}
        self._set_names: Set[str] = set()

    def emit(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if not self.src.suppressed(rule, line):
            self.findings.append(Finding(rule, self.src.rel, line, message))

    # -- scope handling ------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        imports = _ImportMap()
        imports.visit(node)
        self.aliases = imports.aliases
        self._set_names = _local_set_names(node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer = self._set_names
        self._set_names = outer | _local_set_names(node)
        self.generic_visit(node)
        self._set_names = outer

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- D101 / D102 / D103 / D105: calls ------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        name = _normalize(dotted, self.aliases) if dotted else None
        if name:
            self._check_call(node, name)
        # D104: list()/tuple() over a set expression
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and _is_set_expr(node.args[0], self._set_names)
        ):
            self.emit(
                "D104",
                node,
                f"{node.func.id}() over a set materializes hash order; "
                "wrap in sorted()",
            )
        self.generic_visit(node)

    def _check_call(self, node: ast.Call, name: str) -> None:
        if name in _WALL_CLOCK:
            self.emit(
                "D101",
                node,
                f"wall-clock read {name}() in the deterministic core",
            )
            return
        if name.startswith("random.") and name.count(".") == 1:
            attr = name.split(".")[1]
            if attr not in ("Random",):  # seeded instances are fine
                self.emit(
                    "D102",
                    node,
                    f"global-state randomness {name}(); draw from a "
                    "repro.util.rng stream instead",
                )
            return
        if name == "numpy.random.default_rng" and not (
            node.args or node.keywords
        ):
            self.emit(
                "D102",
                node,
                "numpy.random.default_rng() without a seed is "
                "entropy-seeded; pass a derived seed",
            )
            return
        if (
            name.startswith("numpy.random.")
            and name.count(".") == 2
            and name not in _NP_RANDOM_OK
        ):
            self.emit(
                "D102",
                node,
                f"legacy module-level {name}() uses hidden global state; "
                "draw from a repro.util.rng stream instead",
            )
            return
        if name == "os.getenv" and not self.env_shim:
            self.emit(
                "D103",
                node,
                "os.getenv() outside the sanctioned env shims",
            )
            return
        # D105: composed stream labels / seed arithmetic
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            receiver = _dotted(node.func.value)
            if receiver and receiver.split(".")[-1] == "streams":
                arg = node.args[0]
                if isinstance(arg, (ast.JoinedStr, ast.BinOp)):
                    self.emit(
                        "D105",
                        node,
                        "composed stream label; use streams.derive(label, "
                        "*parts) so label composition stays audited",
                    )
        if name == "repro.util.rng.derive_seed" or name.endswith(
            ".derive_seed"
        ) or name == "derive_seed":
            for arg in node.args:
                if isinstance(arg, ast.BinOp) and not isinstance(
                    arg.op, (ast.Mod,)
                ):
                    self.emit(
                        "D105",
                        node,
                        "seed arithmetic fed to derive_seed(); compose a "
                        "label with RngStreams.derive instead",
                    )

    # -- D103: attribute reads -----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not self.env_shim:
            dotted = _dotted(node)
            if dotted and _normalize(dotted, self.aliases) in (
                "os.environ",
                "os.environb",
            ):
                self.emit(
                    "D103",
                    node,
                    "os.environ read outside the sanctioned env shims",
                )
        self.generic_visit(node)

    # -- D104: loops and comprehensions --------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter, self._set_names):
            if _body_materializes_order(node.body):
                self.emit(
                    "D104",
                    node,
                    "for over a set feeds hash order into a sequence; "
                    "iterate sorted(...) instead",
                )
        self.generic_visit(node)

    def _comp(self, node: ast.AST, kind: str) -> None:
        for gen in getattr(node, "generators", []):
            if _is_set_expr(gen.iter, self._set_names):
                self.emit(
                    "D104",
                    node,
                    f"{kind} over a set materializes hash order; "
                    "iterate sorted(...) instead",
                )
                break

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._comp(node, "list comprehension")
        self.generic_visit(node)



def check_determinism(
    project: Project,
) -> List[Finding]:
    findings: List[Finding] = []
    roots = tuple(
        (project.package_root / pkg).resolve() for pkg in CORE_PACKAGES
    )
    shims = tuple(
        (project.package_root / shim).resolve() for shim in ENV_SHIM_FILES
    )
    for src in project.sources():
        if src.parse_error is not None:
            findings.append(
                Finding(
                    "E901",
                    src.rel,
                    src.parse_error.lineno or 0,
                    f"syntax error: {src.parse_error.msg}",
                )
            )
            continue
        if not any(root in src.path.parents for root in roots):
            continue
        visitor = _DeterminismVisitor(src, env_shim=src.path in shims)
        assert src.tree is not None
        visitor.visit(src.tree)
        findings.extend(visitor.findings)
    return findings
