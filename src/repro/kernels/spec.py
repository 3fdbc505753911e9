"""Typed batch-kernel specification: a name plus validated kwargs.

Everywhere the simulator accepts a batch-kernel backend it takes a
:class:`KernelSpec` -- or the spec's canonical string form
``"name:key=value:key=value"`` -- sharing the
:class:`~repro.common.spec.Spec` grammar with
:class:`~repro.cache.policyspec.PolicySpec` and
:class:`~repro.mem.spec.BackendSpec` exactly:

>>> KernelSpec.parse("native")
KernelSpec(name='native', kwargs=())
>>> str(KernelSpec.make("dict"))
'dict'

Kernel names:

``dict``    the reference dict-driven batch session (the one
            ``_session`` loop).  Every other kernel must be
            bit-identical to it; naming it forces the reference path.
``native``  struct-of-arrays state replayed by a small C kernel,
            compiled on demand with the system compiler and bound via
            ctypes (see :mod:`repro.kernels.build`).  Falls back to
            ``dict`` per run when the config is unsupported or no
            compiler is available.
``auto``    ``native`` if it can build, else ``dict``.  The default.

The spec is frozen and hashable, so it can key ``lru_cache`` entries.
A kernel is an execution detail, not part of a result's identity:
every kernel is bit-identical to ``dict``, so job payloads, labels and
store keys never carry it, and a native run and a dict run of the same
job share one store entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Tuple

from repro.common.spec import Spec

#: the kernel every simulation uses unless told otherwise: the native
#: kernel when it builds, else the dict-driven reference drivers.
DEFAULT_KERNEL = "auto"

#: the dict-driven reference batch drivers every kernel must match.
REFERENCE_KERNEL = "dict"

#: every selectable kernel backend name.
KERNEL_NAMES = ("dict", "native", "auto")


@dataclass(frozen=True)
class KernelSpec(Spec):
    """One batch-kernel backend plus its overrides."""

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    spec_noun: ClassVar[str] = "kernel"
    known_names: ClassVar[Tuple[str, ...]] = KERNEL_NAMES

    @property
    def is_default(self) -> bool:
        """True for the plain default kernel, ``auto`` (no kwargs)."""
        return self.name == DEFAULT_KERNEL and not self.kwargs

    @property
    def is_reference(self) -> bool:
        """True for the dict-driven reference drivers (no kernel runtime).

        Everything else routes eligible replays through
        :mod:`repro.kernels.runner`.
        """
        return self.name == REFERENCE_KERNEL
