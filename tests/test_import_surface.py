"""Import surface: a campaign process loads only the backend it runs.

Package ``__init__``s resolve their exports on first use
(:func:`repro.lazy_exports`), so importing the campaign layer and
running a rounds campaign must not pull in the DES stack, and neither
backend loads the array engine unless a config asks for it.  Module
loading is process-wide state, so those checks run in a fresh
interpreter.  The export checks make sure the lazy tables still serve
every ``__all__`` name as the object its defining module holds.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: subpackages of ``repro``, found without importing them
PACKAGES = sorted(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)

#: module prefixes a rounds campaign process must never load
DES_ONLY = (
    "repro.net",
    "repro.sim",
    "repro.protocols",
    "repro.metrics.hub",
    "repro.experiments.runner",
)
ARRAY_ENGINE = "repro.core.array_engine"


def _loaded_after(body: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after ``body``."""
    script = textwrap.dedent(body) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _under(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


_CAMPAIGN = """
    import os, tempfile
    from repro.experiments.campaign import CampaignSpec, run_campaign
    from repro.experiments.config import ScenarioConfig

    base = ScenarioConfig.quick(
        backend={backend!r}, sim_time=12.0, n_nodes=12, group_size=4
    )
    spec = CampaignSpec.from_mapping("imports", base, ("ss-spst",), (1, 2))
    with tempfile.TemporaryDirectory() as tmp:
        result = run_campaign(spec, store=os.path.join(tmp, "runs.sqlite"))
    assert result.executed == 2, result.executed
"""


def test_rounds_campaign_loads_no_des_module_and_no_array_engine():
    loaded = _loaded_after(_CAMPAIGN.format(backend="rounds"))
    assert "repro.experiments.backends" in loaded  # the run did happen
    offending = [
        m for m in loaded
        for prefix in DES_ONLY + (ARRAY_ENGINE,)
        if _under(m, prefix)
    ]
    assert offending == []


def test_des_run_does_not_load_the_array_engine():
    loaded = _loaded_after(_CAMPAIGN.format(backend="des"))
    assert "repro.experiments.runner" in loaded
    assert ARRAY_ENGINE not in loaded


def _check_exports() -> None:
    """Every ``__all__`` name of every package is its defining module's
    object (never the submodule of the same name)."""
    for package in PACKAGES:
        pkg = importlib.import_module(package)
        table = getattr(pkg, "_LAZY_EXPORTS", {})
        for name in pkg.__all__:
            value = getattr(pkg, name)
            assert not isinstance(value, type(pkg)), (package, name)
            if name in table:
                owner = importlib.import_module(f"{package}.{table[name]}")
                assert value is getattr(owner, name), (package, name)
            elif isinstance(value, (type, types.FunctionType)):
                owner = importlib.import_module(value.__module__)
                assert value is getattr(owner, value.__qualname__), (
                    package, name
                )


def _import_every_submodule() -> None:
    for package in PACKAGES:
        pkg = importlib.import_module(package)
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name != "__main__":
                importlib.import_module(f"{package}.{info.name}")


@pytest.mark.parametrize("submodules_first", [False, True])
def test_every_export_is_its_defining_modules_object(submodules_first):
    """Both orders, in a fresh interpreter: exports read before any
    submodule is imported, and after every submodule is."""
    body = f"""
        import sys
        sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})
        import test_import_surface as t
        if {submodules_first!r}:
            t._import_every_submodule()
        t._check_exports()
        t._import_every_submodule()
        t._check_exports()
    """
    _loaded_after(body)


def test_no_lazy_export_is_also_a_submodule_name():
    clashes = []
    for package in PACKAGES:
        pkg = importlib.import_module(package)
        table = getattr(pkg, "_LAZY_EXPORTS", {})
        submodules = {info.name for info in pkgutil.iter_modules(pkg.__path__)}
        clashes += [(package, name) for name in table if name in submodules]
        assert set(table) <= set(pkg.__all__), package
    assert clashes == []


def test_unknown_attribute_raises_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        repro.core.not_an_export
    assert not hasattr(repro.core, "not_an_export")
