"""Struct-of-arrays C kernel for the stamped replay fast path.

One compiled backend, ``native``; the dict-driven batch drivers in
:mod:`repro.cache.cache` are the reference and the fallback.

Public surface:

- :class:`KernelSpec` -- canonical ``"name:key=value"`` kernel selector
  (mirrors ``PolicySpec``/``BackendSpec``), threaded through
  ``SimulationSpec``, ``RunJob`` and the CLI ``--kernel`` flag.
- :class:`KernelRuntime` / :func:`attach_kernel` -- load the native
  library for a spec and hang it on a cache (or every cache a hierarchy or
  shared-LLC system owns).  All ``try_*`` entry points return ``None``
  when a configuration is outside the kernel's supported matrix, and
  the dict-driven reference driver runs instead -- the kernels are an
  accelerator, never a semantic fork.
- availability probes and cache resets for tests.
"""

from repro.kernels.build import (
    cache_dir,
    compile_native,
    find_compiler,
    load_native,
    native_available,
    reset_native_cache,
)
from repro.kernels.runner import KernelRuntime, attach_kernel
from repro.kernels.spec import DEFAULT_KERNEL, KERNEL_NAMES, KernelSpec

__all__ = [
    "DEFAULT_KERNEL",
    "KERNEL_NAMES",
    "KernelRuntime",
    "KernelSpec",
    "attach_kernel",
    "cache_dir",
    "compile_native",
    "find_compiler",
    "load_native",
    "native_available",
    "reset_native_cache",
]
