"""Content-addressed job keys.

A job key is the SHA-256 of a canonical-JSON payload describing
*everything that determines the result*: benchmark, policy, the full
:class:`~repro.sim.scale.ExperimentScale` (which carries the
trace seed), any cache-geometry override, and a digest of the simulator
source code.  Same key -> same result, so the on-disk store can return a
cached :class:`~repro.cpu.core.RunResult` without re-simulating; any
change to an input (or to the simulator itself) changes the key and
naturally invalidates stale entries.

See ``docs/ENGINE.md`` for the exact hashing scheme.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Mapping

import repro

#: top-level package entries whose source does NOT affect simulation
#: results: the engine and sweep service (orchestration only) and the CLI.
_NON_SEMANTIC = {"engine", "service", "cli.py", "__main__.py", "__pycache__"}


#: the source files that determine results: the Python modules and the
#: native kernel's C source, which replays every job the default
#: ``auto`` kernel accepts.
_SOURCE_PATTERNS = ("*.py", "*.c")


def hashed_sources() -> List[str]:
    """Package-relative paths :func:`code_version` digests, in order."""
    root = Path(repro.__file__).resolve().parent
    return sorted(
        rel
        for pattern in _SOURCE_PATTERNS
        for rel in (p.relative_to(root).as_posix() for p in root.rglob(pattern))
        if rel.split("/", 1)[0] not in _NON_SEMANTIC
    )


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every simulator source file (orchestration excluded).

    Hashed once per process; editing any file under ``repro/`` other
    than ``engine/``/``cli.py`` -- the ``*.py`` files and the native
    kernel's C source -- changes the digest and therefore every job
    key, so a stale store can never serve results from old code.
    """
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for rel in hashed_sources():
        digest.update(rel.encode("utf-8"))
        digest.update(b"\x00")
        digest.update((root / rel).read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def scale_payload(scale) -> Dict[str, object]:
    """All fields of an ``ExperimentScale`` (or any frozen dataclass)."""
    return asdict(scale)


def job_key(payload: Mapping[str, object]) -> str:
    """SHA-256 over canonical JSON of ``payload`` + the code version."""
    body = dict(payload)
    body["code"] = code_version()
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
