"""Pluggable kernel-execution backends.

The hot loops of every implementation run through the small primitive
set of :class:`Backend` (scatter reductions, segmented reductions,
fused coloring kernels, vxm combine, frontier compaction).  ``Backend``
is :class:`~repro.backend.reference.ReferenceBackend`: the reference
implementation is the contract, and the other backend extends it.
This module owns backend *selection*:

* :func:`resolve` maps a requested name (explicit argument →
  ``REPRO_BACKEND`` environment variable → ``"reference"``) to a
  backend instance.  ``cnative`` warns **once** and resolves to the
  reference backend when it cannot load (no C compiler) — so the
  *effective* backend name, ``resolve(...).name``, is what flows into
  journal config hashes, trace/metrics labels and the BENCH
  environment fingerprint.
* :func:`use` scopes a backend for the duration of a run (the runner
  and ``run_algorithm`` wrap every execution in it).
* :func:`current` is what call sites dispatch through.

Backends are interchangeable by contract: all simulated quantities are
bit-identical whichever backend executes (docs/backends.md), enforced
by the golden-trajectory and property suites.

Known backends:

``reference``
    Interpreted numpy; always available (:mod:`.reference`).
``cnative``
    Fused C kernels compiled on first use with the system C compiler
    (:mod:`.cnative`); falls back to reference when no compiler exists.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Dict, List, Union

from .reference import BackendError, ReferenceBackend

#: The base class of every backend: the reference implementation.
Backend = ReferenceBackend

__all__ = [
    "Backend",
    "BackendError",
    "ReferenceBackend",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KNOWN_BACKENDS",
    "available_backends",
    "current",
    "resolve",
    "use",
]

DEFAULT_BACKEND = "reference"

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_BACKEND"

#: Names :func:`resolve` accepts, in documentation order.
KNOWN_BACKENDS = ("reference", "cnative")

_instances: Dict[str, Backend] = {}
_warned: set = set()
_stack: List[Backend] = []


def resolve(name: Union[str, Backend, None] = None) -> Backend:
    """Resolve a backend request to an instance.

    ``None`` (or ``""``) consults ``$REPRO_BACKEND`` and defaults to
    the reference backend.  An unavailable ``cnative`` warns once per
    process and resolves to reference, so callers can rely on the
    returned instance's ``.name`` as the effective label.  Unknown
    names raise :class:`BackendError`.
    """
    if isinstance(name, Backend):
        return name
    if not name:
        name = os.environ.get(ENV_VAR, "") or DEFAULT_BACKEND
    name = str(name)
    if name in _instances:
        return _instances[name]
    if name == "reference":
        backend: Backend = ReferenceBackend()
    elif name == "cnative":
        from . import cnative

        loaded, reason = cnative.load()
        if loaded is None:
            if name not in _warned:
                _warned.add(name)
                warnings.warn(
                    f"backend {name!r} unavailable ({reason}); "
                    "falling back to the reference backend",
                    RuntimeWarning,
                    stacklevel=2,
                )
            backend = resolve("reference")
        else:
            backend = loaded
    else:
        raise BackendError(
            f"unknown backend {name!r}; known: {', '.join(KNOWN_BACKENDS)}"
        )
    _instances[name] = backend
    return backend


def current() -> Backend:
    """The backend hot loops dispatch through: the innermost
    :func:`use` scope, else the ambient (env/default) resolution."""
    if _stack:
        return _stack[-1]
    return resolve(None)


@contextmanager
def use(backend: Union[str, Backend, None] = None):
    """Scope ``backend`` (name or instance) as :func:`current`."""
    be = resolve(backend)
    _stack.append(be)
    try:
        yield be
    finally:
        _stack.pop()


def available_backends() -> List[str]:
    """Names that resolve to a genuinely distinct backend on this
    machine.  Probing bypasses the fallback-warning path entirely, so
    it neither warns nor consumes the warn-once budget of a later
    explicit selection."""
    if "cnative" not in _instances:
        from . import cnative

        loaded, _reason = cnative.load()
        if loaded is None:
            return [DEFAULT_BACKEND]
        _instances["cnative"] = loaded
    if _instances["cnative"].name != "cnative":
        return [DEFAULT_BACKEND]
    return [DEFAULT_BACKEND, "cnative"]


def _reset() -> None:
    """Test hook: forget cached instances, warnings, and scopes."""
    _instances.clear()
    _warned.clear()
    del _stack[:]
