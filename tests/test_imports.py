"""Every ``repro`` package imports on its own, and the layers point one way.

Each target is imported first thing in a fresh interpreter, so an
import cycle that a warm test process hides (some other module already
loaded the half of the cycle that breaks it) still fails here.  The
interpreters run concurrently to keep the check to a few seconds.

The direction checked is ``engine -> experiments -> sim -> {cache,
kernels, trace, ...}``: the simulator front-end never loads the
experiment harnesses or the sweep engine, and the kernel layer never
loads the engine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent

#: prints the repro modules a fresh import of argv[1] left loaded.
PROBE = (
    "import importlib, json, sys; importlib.import_module(sys.argv[1]); "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'repro' or m.startswith('repro.'))))"
)


def import_targets():
    """``repro``, every package under it, and every top-level module."""
    packages = sorted(
        ".".join(("repro",) + init.parent.relative_to(ROOT).parts)
        for init in ROOT.rglob("__init__.py")
        if "__pycache__" not in init.parts
    )
    modules = sorted(
        f"repro.{path.stem}"
        for path in ROOT.glob("*.py")
        if path.stem not in ("__init__", "__main__")
    )
    return packages + modules


def _fresh_import(name):
    """``(name, (loaded repro modules, None))`` or ``(name, (None, error))``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT.parent), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, name],
        capture_output=True, text=True, env=env, timeout=120,
    )
    if proc.returncode != 0:
        return name, (None, proc.stderr.strip().splitlines()[-1:])
    return name, (json.loads(proc.stdout), None)


@pytest.fixture(scope="module")
def loaded():
    """Target name -> (modules its fresh import loaded, error)."""
    with ThreadPoolExecutor(max_workers=4) as pool:
        return dict(pool.map(_fresh_import, import_targets()))


def test_every_target_imports_fresh(loaded):
    assert {"repro", "repro.sim", "repro.kernels", "repro.trace.ingest",
            "repro.cli"} <= set(loaded)
    failed = {
        name: error for name, (modules, error) in loaded.items()
        if modules is None
    }
    assert not failed, f"fresh imports failed: {failed}"


def _layers(loaded, name, *prefixes):
    """The modules under ``prefixes`` a fresh import of ``name`` loaded."""
    modules, error = loaded[name]
    assert modules is not None, f"import {name} failed: {error}"
    return [
        module for module in modules
        if any(module == p or module.startswith(p + ".") for p in prefixes)
    ]


def test_sim_loads_no_experiments_or_engine(loaded):
    assert _layers(
        loaded, "repro.sim", "repro.experiments", "repro.engine"
    ) == []


def test_kernels_loads_no_engine(loaded):
    assert _layers(loaded, "repro.kernels", "repro.engine") == []
