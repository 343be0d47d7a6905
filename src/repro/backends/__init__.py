"""Pluggable compute backends.

A *backend* bundles the compute choices one campaign run makes — which
acquisition kernel generates traces, whether the native library (the
C sensor sampler and the conditional-sum CPA kernel of
:mod:`repro.kernels._csampler`) may run, and whether CPA accumulates
with the batched engine or the per-byte reference engine — behind one
name, selected via ``backend=`` arguments, the CLI's ``--backend``
flag, or the ``REPRO_BACKEND`` environment variable.

Built-in backends:

``fused`` (default)
    The production path: fused BLAS acquisition kernel, the native
    library when it built, batched CPA accumulation (the native
    conditional-sum kernel, per-byte sums as its fallback).
``numpy``
    The pure-numpy reference path: unfused ``reference`` kernel, the
    native library switched off (numpy fan-out sampling), per-byte CPA
    accumulation.  Kept as the differential-testing oracle — every
    other backend must match it bit for bit on integer inputs.

A backend is the only kernel selector: :func:`repro.kernels.
default_kernel_name` reports the kernel the active backend implies.
The registry is capability-probing: a backend may advertise that it
cannot run in this process (a missing dependency, a failed
self-test), `available_backends()` reports only the runnable ones, and
selecting an unavailable backend fails with the probe's reason instead
of silently computing something else.  Bit-identity against ``numpy``
is enforced by the differential suites in ``tests/test_backends.py``
and ``tests/test_cpa_batched.py`` (the PR-3 pattern).

:mod:`repro.backends.threads` rides along: BLAS/OpenMP threadpool
pinning so N-worker engine pools don't oversubscribe cores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.backends.threads import pin_worker_threads, set_blas_threads

__all__ = [
    "Backend",
    "activate_backend",
    "active_backend",
    "active_backend_name",
    "all_backends",
    "available_backends",
    "compute_record",
    "cpa_accumulate_mode",
    "default_backend_name",
    "get_backend",
    "pin_worker_threads",
    "register_backend",
    "set_blas_threads",
    "unregister_backend",
]

#: CPA accumulate engines a backend can select.
CPA_ACCUMULATE_MODES = ("batched", "per-byte")


@dataclass(frozen=True)
class Backend:
    """One named compute configuration.

    ``probe`` returns ``None`` when the backend can run in this
    process, or a human-readable reason string when it cannot.
    ``activate`` (optional) applies backend-specific process state —
    the native-library switch — and is called by
    :func:`activate_backend` after the probe passes.
    """

    name: str
    description: str
    kernel: str
    cpa_accumulate: str = "batched"
    probe: Callable[[], Optional[str]] = field(default=lambda: None)
    activate: Optional[Callable[[], None]] = None

    def unavailable_reason(self) -> Optional[str]:
        """Why this backend cannot run here (``None`` if it can)."""
        return self.probe()


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------


def _activate_numpy() -> None:
    from repro.kernels import _csampler

    # Pure-numpy everywhere: bypass the native library too.
    _csampler.ENABLED = False


def _activate_fused() -> None:
    from repro.kernels import _csampler

    _csampler.ENABLED = True  # native kernels when they built


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, *, replace: bool = False) -> str:
    """Register a backend under its name (the extension seam for
    cupy-style third-party backends).  Returns the name."""
    if not isinstance(backend, Backend):
        raise ConfigurationError("register_backend expects a Backend")
    if not backend.name:
        raise ConfigurationError("backend needs a non-empty name")
    if backend.cpa_accumulate not in CPA_ACCUMULATE_MODES:
        raise ConfigurationError(
            f"backend {backend.name!r} has unknown cpa_accumulate "
            f"{backend.cpa_accumulate!r}; expected one of "
            f"{CPA_ACCUMULATE_MODES}"
        )
    if backend.name in _BUILTIN_BACKENDS:
        raise ConfigurationError(
            f"backend name {backend.name!r} is reserved (built-in)"
        )
    if backend.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"backend {backend.name!r} is already registered "
            "(pass replace=True)"
        )
    _REGISTRY[backend.name] = backend
    return backend.name


def unregister_backend(name: str) -> None:
    """Remove a backend registered via :func:`register_backend`."""
    if name in _BUILTIN_BACKENDS:
        raise ConfigurationError(f"cannot unregister built-in backend {name!r}")
    if name not in _REGISTRY:
        raise ConfigurationError(f"unknown backend {name!r}")
    if name == _ACTIVE[0]:
        raise ConfigurationError(
            f"backend {name!r} is active; activate another backend first"
        )
    del _REGISTRY[name]


_REGISTRY["fused"] = Backend(
    name="fused",
    description="fused BLAS kernels + native conditional-sum CPA (default)",
    kernel="fused",
    cpa_accumulate="batched",
    activate=_activate_fused,
)
_REGISTRY["numpy"] = Backend(
    name="numpy",
    description="pure-numpy reference path (the differential oracle)",
    kernel="reference",
    cpa_accumulate="per-byte",
    activate=_activate_numpy,
)
_BUILTIN_BACKENDS = dict(_REGISTRY)

#: The explicitly activated backend name; ``None`` falls through to
#: :func:`default_backend_name` (the ``REPRO_BACKEND`` environment
#: variable) at resolution time.  Boxed so closures see updates.
_ACTIVE: list = [None]


def all_backends() -> Tuple[str, ...]:
    """Every registered backend name, available or not, sorted."""
    return tuple(sorted(_REGISTRY))


def available_backends() -> Tuple[str, ...]:
    """Registered backends whose probe passes in this process."""
    return tuple(
        name for name in all_backends()
        if _REGISTRY[name].unavailable_reason() is None
    )


def default_backend_name() -> str:
    """The backend ``backend=None`` resolves to: ``REPRO_BACKEND`` when
    set (validated lazily by :func:`get_backend`), else ``"fused"``."""
    return os.environ.get("REPRO_BACKEND") or "fused"


def active_backend_name() -> str:
    """The currently selected backend name."""
    return _ACTIVE[0] if _ACTIVE[0] is not None else default_backend_name()


def get_backend(name: Optional[str] = None) -> Backend:
    """Resolve a backend argument to its (available) :class:`Backend`.

    ``None`` resolves to the active/default backend.  Unknown names and
    backends whose probe fails raise :class:`~repro.errors.
    ConfigurationError` — the latter with the probe's reason, so a
    mistyped ``REPRO_BACKEND`` or a missing optional dependency fails
    loudly instead of silently computing on another path.
    """
    if name is None:
        name = active_backend_name()
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown backend {name!r}; registered: {', '.join(all_backends())}"
        )
    reason = backend.unavailable_reason()
    if reason is not None:
        raise ConfigurationError(
            f"backend {name!r} is unavailable here: {reason}"
        )
    return backend


def active_backend() -> Backend:
    """The :class:`Backend` for :func:`active_backend_name`."""
    return get_backend(None)


def activate_backend(name: str) -> str:
    """Make ``name`` the process-wide backend; returns the previous name.

    Applies the backend's process state: its acquisition kernel becomes
    what ``kernel=None`` resolves to and it sets the native-library
    switch (:data:`repro.kernels._csampler.ENABLED`).
    """
    backend = get_backend(name)
    previous = active_backend_name()
    if backend.activate is not None:
        backend.activate()
    _ACTIVE[0] = backend.name
    return previous


def cpa_accumulate_mode(choice: Optional[str] = None) -> str:
    """Resolve a CPA ``accumulate=`` argument to a concrete engine.

    Explicit ``"batched"`` / ``"per-byte"`` pass through; ``None``
    resolves through the active backend (so ``REPRO_BACKEND=numpy``
    runs the per-byte reference engine everywhere).
    """
    if choice is not None:
        if choice not in CPA_ACCUMULATE_MODES:
            raise ConfigurationError(
                f"unknown accumulate mode {choice!r}; expected one of "
                f"{CPA_ACCUMULATE_MODES}"
            )
        return choice
    name = active_backend_name()
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown backend {name!r}; registered: {', '.join(all_backends())}"
        )
    return backend.cpa_accumulate


def compute_record(cpa_engines: Iterable[str] = ()) -> Dict[str, object]:
    """What computed a run, for its record: the active backend, whether
    the native library is built and enabled in this process
    (:func:`repro.kernels._csampler.native_built`), and the CPA engines
    that folded chunks — ``"native"``, ``"per-byte"``, both joined by
    ``"+"``, or ``None`` when no CPA chunk was folded."""
    from repro.kernels._csampler import native_built

    return {
        "backend": active_backend_name(),
        "native_built": native_built(),
        "cpa_engine": "+".join(sorted(set(cpa_engines))) or None,
    }
