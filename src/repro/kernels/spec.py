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

``dict``    the reference dict-driven batch sessions
            (``_session_stamped`` and ``_session_generic``).  The
            default; every other kernel must be bit-identical to it.
``native``  struct-of-arrays state replayed by a small C kernel,
            compiled on demand with the system compiler and bound via
            ctypes (see :mod:`repro.kernels.build`).  Falls back to
            ``dict`` per run when the config is unsupported or no
            compiler is available.
``auto``    ``native`` if it can build, else ``dict``.

The spec is frozen and hashable, so it can key ``lru_cache``/store
entries.  The default kernel keys as plain ``"dict"`` and is
deliberately *omitted* from job payloads and labels, so every result
stored before kernels existed stays warm (the same convention
``BackendSpec`` uses for ``dram``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Tuple

from repro.common.spec import Spec

#: the kernel every simulation uses unless told otherwise: the
#: dict-driven reference batch drivers.
DEFAULT_KERNEL = "dict"

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
        """True for the plain dict-driven reference kernel (no kwargs).

        The default keeps the existing batch drivers and the old store
        keys; anything else routes through :mod:`repro.kernels.runner`.
        """
        return self.name == DEFAULT_KERNEL and not self.kwargs
