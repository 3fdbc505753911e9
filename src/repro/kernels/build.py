"""Compile the native batch kernel on demand and bind it via ctypes.

There is no build step and no binary in the repo: the C source
(``native_src.c``) ships alongside this module and is compiled with the
system C compiler the first time the ``native`` kernel is requested.
The shared object is cached under ``~/.cache/repro/kernels/`` keyed by
the source digest, so recompiles only happen when the source changes.

Everything degrades gracefully: ``REPRO_NO_NATIVE=1``, no compiler, an
unusable cache directory, a failed compile or an ABI mismatch makes
:func:`load_native` return ``None`` and :func:`load_failure` say which
(a :class:`NativeUnavailable` and its ``kind``); callers fall back to
the dict-driven reference driver.

The ctypes ``Structure`` classes here must stay field-for-field in sync
with the structs at the top of ``native_src.c``; ``rw_abi_version`` is
checked at load time so a stale cached ``.so`` can never be misread.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

_ABI_VERSION = 1

_SOURCE = Path(__file__).resolve().parent / "native_src.c"

#: IEEE-754 semantics are load-bearing: the kernel must produce the
#: exact double stream CPython does, so contraction stays off and no
#: fast-math flag may ever appear here.  ``-O3`` is safe under that
#: constraint (it never relaxes FP semantics on its own) and buys a
#: measurable win on the victim-scan loops.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_int64 = ctypes.c_int64
_uint8 = ctypes.c_uint8
_double = ctypes.c_double
_p_int64 = ctypes.POINTER(ctypes.c_int64)
_p_uint8 = ctypes.POINTER(ctypes.c_uint8)
_p_double = ctypes.POINTER(ctypes.c_double)

#: the ``on_epoch`` trampoline: C -> Python at epoch boundaries; a
#: nonzero return aborts the run (the Python side stores the exception).
EPOCH_CB = ctypes.CFUNCTYPE(ctypes.c_int32)


class CacheCtx(ctypes.Structure):
    _fields_ = [
        ("num_sets", _int64),
        ("ways", _int64),
        ("index_bits", _int64),
        ("offset_bits", _int64),
        ("tag", _p_int64),
        ("stamp", _p_int64),
        ("owner", _p_int64),
        ("valid", _p_uint8),
        ("dirty", _p_uint8),
        ("read_seen", _p_uint8),
        ("write_seen", _p_uint8),
        ("filled", _p_int64),
        ("dirty_lines", _p_int64),
        ("victim_kind", _int64),
        ("target_clean", _int64),
        ("policy_cores", _int64),
        ("clean_targets", _p_int64),
        ("dirty_targets", _p_int64),
        ("clock", _int64),
        ("sample_stride", _int64),
        ("sampler_route_mod", _int64),
        ("shadow_slots", _int64),
        ("sh_tags", _p_int64),
        ("sh_len", _p_int64),
        ("sh_touched", _p_uint8),
        ("hist", _p_int64),
        ("epoch_period", _int64),
        ("epoch_left", _int64),
        ("epoch_cb", EPOCH_CB),
        ("read_hits", _int64),
        ("write_hits", _int64),
        ("read_misses", _int64),
        ("write_misses", _int64),
        ("evictions", _int64),
        ("dirty_evictions", _int64),
        ("writebacks", _int64),
        ("evicted_ro", _int64),
        ("evicted_wo", _int64),
        ("evicted_rw", _int64),
        ("status", _int64),
    ]


class LaneCtx(ctypes.Structure):
    _fields_ = [
        ("set_stream", _p_int64),
        ("tag_stream", _p_int64),
        ("write_stream", _p_uint8),
        ("cycle_stream", _p_double),
        ("gap_stream", _p_int64),
        ("timed", _int64),
        ("hit_stall", _double),
        ("miss_stall", _double),
        ("cycles", _double),
        ("read_stall", _double),
        ("write_stall", _double),
        ("instructions", _int64),
        ("cycle_limit", _double),
        ("wb_ring", _p_double),
        ("wb_cap", _int64),
        ("wb_head", _int64),
        ("wb_len", _int64),
        ("wb_entries", _int64),
        ("wb_drain", _double),
        ("wb_server_free", _double),
        ("wb_stall_cycles", _double),
        ("wb_writes", _int64),
        ("core", _int64),
        ("rh", _int64),
        ("rm", _int64),
        ("wh", _int64),
        ("wm", _int64),
        ("first_unconditional", _int64),
        ("origin_stream", _p_int64),
        ("levels", _p_int64),
        ("mem", _p_int64),
        ("wb_out", _p_int64),
        ("wb_out_count", _int64),
    ]


class MultiCtx(ctypes.Structure):
    _fields_ = [
        ("num_cores", _int64),
        ("lanes", ctypes.POINTER(LaneCtx)),
        ("lengths", _p_int64),
        ("warmup", _int64),
        ("position", _p_int64),
        ("done", _p_uint8),
        ("effective", _p_double),
        ("base_rh", _p_int64),
        ("base_rm", _p_int64),
        ("base_wh", _p_int64),
        ("base_wm", _p_int64),
        ("frozen_rh", _p_int64),
        ("frozen_rm", _p_int64),
        ("frozen_wh", _p_int64),
        ("frozen_wm", _p_int64),
        ("frozen_instr", _p_int64),
        ("frozen_cycles", _p_double),
        ("ticks", _p_int64),
        ("remaining", _int64),
    ]


class FilterCtx(ctypes.Structure):
    _fields_ = [
        ("set_stream", _p_int64),
        ("tag_stream", _p_int64),
        ("write_stream", _p_uint8),
        ("origins", _p_int64),
        ("levels", _p_int64),
        ("level", _int64),
        ("core", _int64),
        ("out_blocks", _p_int64),
        ("out_write", _p_uint8),
        ("out_origin", _p_int64),
        ("out_count", _int64),
        ("forwarded", _int64),
    ]


@dataclass(frozen=True)
class NativeLib:
    """The loaded shared object with typed entry points."""

    path: Path
    run_trace: "ctypes._NamedFuncPointer"
    lru_filter: "ctypes._NamedFuncPointer"
    multicore: "ctypes._NamedFuncPointer"


def cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "kernels"


def find_compiler() -> Optional[str]:
    override = os.environ.get("REPRO_CC")
    if override:
        return override if shutil.which(override) else None
    for name in ("cc", "gcc", "clang"):
        if shutil.which(name):
            return name
    return None


def _source_digest() -> str:
    return hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]


class NativeUnavailable(Exception):
    """Why the native kernel cannot be loaded in this process.

    ``kind`` is one of ``"disabled"`` (``REPRO_NO_NATIVE=1``),
    ``"no-compiler"``, ``"cache-dir"`` (the kernel cache directory is
    unusable), ``"compile-failed"`` (the compiler failed or the ``.so``
    will not load) or ``"abi-mismatch"``; ``str()`` is the one-line
    detail the fallback channels print.
    """

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind


def _build() -> Path:
    """Compile (or reuse) the kernel .so; raises :class:`NativeUnavailable`."""
    if os.environ.get("REPRO_NO_NATIVE") == "1":
        raise NativeUnavailable("disabled", "REPRO_NO_NATIVE=1")
    if not _SOURCE.is_file():
        raise NativeUnavailable("compile-failed", f"no kernel source {_SOURCE}")
    out = cache_dir() / f"rwkernel-{_source_digest()}-abi{_ABI_VERSION}.so"
    if out.is_file():
        return out
    compiler = find_compiler()
    if compiler is None:
        raise NativeUnavailable("no-compiler", "no C compiler found")
    # Compile to a private temp name and publish with an atomic rename so
    # concurrent sweep workers never load a half-written object.
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
        os.close(fd)
    except OSError as error:
        raise NativeUnavailable(
            "cache-dir", f"kernel cache {out.parent} is unusable: {error}"
        ) from None
    cmd = [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE), "-lm"]
    try:
        try:
            proc = subprocess.run(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                timeout=120,
            )
        except (OSError, subprocess.SubprocessError) as error:
            raise NativeUnavailable(
                "compile-failed", f"{compiler} did not run: {error}"
            ) from None
        if proc.returncode != 0:
            detail = f"{compiler} exited {proc.returncode}"
            output = proc.stdout.decode("utf-8", "replace").splitlines()
            raise NativeUnavailable(
                "compile-failed", f"{detail}: {output[0]}" if output else detail
            )
        try:
            os.replace(tmp, out)
        except OSError as error:
            raise NativeUnavailable(
                "cache-dir", f"cannot publish {out}: {error}"
            ) from None
        tmp = None
        return out
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def compile_native() -> Optional[Path]:
    """Compile (or reuse) the kernel .so; None when unavailable."""
    try:
        return _build()
    except NativeUnavailable:
        return None


def _bind(path: Path) -> NativeLib:
    """Load and type the entry points; raises :class:`NativeUnavailable`."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as error:
        raise NativeUnavailable(
            "compile-failed", f"cannot load {path}: {error}"
        ) from None
    try:
        abi = lib.rw_abi_version
        abi.restype = _int64
        abi.argtypes = []
        found = abi()
        if found != _ABI_VERSION:
            raise NativeUnavailable(
                "abi-mismatch",
                f"{path} has ABI {found}, expected {_ABI_VERSION}",
            )
        run_trace = lib.rw_run_trace
        run_trace.restype = _int64
        run_trace.argtypes = [
            ctypes.POINTER(CacheCtx),
            ctypes.POINTER(LaneCtx),
            _int64,
            _int64,
        ]
        lru_filter = lib.rw_lru_filter
        lru_filter.restype = _int64
        lru_filter.argtypes = [
            ctypes.POINTER(CacheCtx),
            ctypes.POINTER(FilterCtx),
            _int64,
            _int64,
        ]
        multicore = lib.rw_multicore
        multicore.restype = _int64
        multicore.argtypes = [ctypes.POINTER(CacheCtx), ctypes.POINTER(MultiCtx)]
    except AttributeError as error:
        raise NativeUnavailable(
            "abi-mismatch", f"{path} lacks an entry point: {error}"
        ) from None
    return NativeLib(
        path=path, run_trace=run_trace, lru_filter=lru_filter, multicore=multicore
    )


_loaded: Optional[NativeLib] = None
_load_attempted = False
_load_failure: Optional[NativeUnavailable] = None
_degraded_noted = False


def load_native() -> Optional[NativeLib]:
    """The process-wide native kernel handle, or None when unavailable.

    The first call compiles if needed; failures are remembered (see
    :func:`load_failure`) so a missing compiler costs one probe, not
    one per run.
    """
    global _loaded, _load_attempted, _load_failure
    if _load_attempted:
        return _loaded
    _load_attempted = True
    try:
        _loaded = _bind(_build())
    except NativeUnavailable as failure:
        _load_failure = failure
    return _loaded


def load_failure() -> Optional[NativeUnavailable]:
    """Why the last :func:`load_native` returned None (None if it loaded)."""
    load_native()
    return _load_failure


def note_degraded(requested: str) -> None:
    """Print one stderr line the first time a kernel request degrades.

    Called when ``requested`` (the default ``auto``) resolved to the
    dict driver because the native kernel is unavailable; later calls
    in the same process stay quiet.
    """
    global _degraded_noted
    failure = load_failure()
    if _degraded_noted or failure is None:
        return
    _degraded_noted = True
    print(
        f"repro: kernel {requested!r} runs the dict driver: native kernel "
        f"unavailable ({failure.kind}: {failure})",
        file=sys.stderr,
    )


def reset_native_cache() -> None:
    """Forget the memoized load (tests toggling REPRO_NO_NATIVE)."""
    global _loaded, _load_attempted, _load_failure, _degraded_noted
    _loaded = None
    _load_attempted = False
    _load_failure = None
    _degraded_noted = False


def native_available() -> bool:
    return load_native() is not None
