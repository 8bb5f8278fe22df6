"""Byzantine behaviour registry: names → runnable misbehaviour classes.

A fault plan names behaviours (``"double-vote"``, ``"equivocate"``, …);
this registry resolves a name against a protocol spec into the
:data:`repro.sim.cluster.NodeFactory` that builds the misbehaving node
with the spec's quorum parameters.  The built-ins wrap the
:mod:`repro.sim.pbft.byzantine` classes for :class:`~repro.protocols.pbft.PBFTSpec`
fleets; other spec types register their own via :func:`register_behaviour`
(simulation campaigns themselves run Raft and PBFT specs only: the node
factory comes from :func:`repro.engine.backends._node_factory_for`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

from repro.errors import InvalidConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.base import ProtocolSpec
    from repro.sim.cluster import NodeFactory

#: (name, spec type, build) rows; later registrations take precedence and
#: subclasses are matched most-recently-registered-first.  The built-in
#: PBFT rows are appended lazily on first use so that importing
#: :mod:`repro.injection` (and therefore :mod:`repro.engine`) never pays
#: the discrete-event sim + PBFT stack import.
_BEHAVIOURS: list[tuple[str, type, Callable]] = []
_BUILTINS_LOADED = False
_BUILTINS_LOCK = threading.Lock()


def _ensure_builtins() -> None:
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_LOCK:
        if _BUILTINS_LOADED:
            return
        # Append the rows before publishing the flag: a concurrent caller
        # either waits on the lock or sees the fully-populated registry.
        _BEHAVIOURS.extend(_builtin_behaviours())
        _BUILTINS_LOADED = True


def register_behaviour(
    name: str, spec_type: type, build: Callable[["ProtocolSpec"], "NodeFactory"]
) -> None:
    """Make behaviour ``name`` runnable for fleets of ``spec_type``.

    ``build(spec)`` must return a node factory whose nodes misbehave as
    advertised while honouring ``spec``'s quorum parameters.
    """
    if not name:
        raise InvalidConfigurationError("behaviour name must be non-empty")
    _ensure_builtins()
    _BEHAVIOURS.insert(0, (name, spec_type, build))


def registered_behaviours(spec: "ProtocolSpec | None" = None) -> tuple[str, ...]:
    """Behaviour names available (for ``spec``'s family when given)."""
    _ensure_builtins()
    names = {
        name
        for name, spec_type, _ in _BEHAVIOURS
        if spec is None or isinstance(spec, spec_type)
    }
    return tuple(sorted(names))


def supports_byzantine(spec: "ProtocolSpec") -> bool:
    """Whether any behaviour is registered for ``spec``'s family."""
    _ensure_builtins()
    return any(isinstance(spec, spec_type) for _, spec_type, _ in _BEHAVIOURS)


def behaviour_build(name: str, spec: "ProtocolSpec") -> Callable:
    """The *registered build callable* behind behaviour ``name`` for ``spec``.

    Unlike :func:`behaviour_factory` (which calls the build and returns a
    fresh factory closure), this returns the stable registered object —
    the identity campaign cache keys carry, so re-registering a behaviour
    naturally invalidates cached answers that used the old implementation.
    """
    _ensure_builtins()
    for entry_name, spec_type, build in _BEHAVIOURS:
        if entry_name == name and isinstance(spec, spec_type):
            return build
    return _raise_unknown(name, spec)


def behaviour_factory(name: str, spec: "ProtocolSpec") -> "NodeFactory":
    """Resolve behaviour ``name`` for ``spec`` into a node factory."""
    return behaviour_build(name, spec)(spec)


def _raise_unknown(name: str, spec: "ProtocolSpec"):
    available = registered_behaviours(spec)
    detail = (
        f"registered for {type(spec).__qualname__}: {list(available)}"
        if available
        else f"none registered for {type(spec).__qualname__} "
        "(built-ins cover PBFTSpec; repro.injection.register_behaviour() adds more)"
    )
    raise InvalidConfigurationError(
        f"unknown Byzantine behaviour {name!r}; {detail}"
    )


def _builtin_behaviours() -> list[tuple[str, type, Callable]]:
    """The built-in PBFT rows (returned, not registered — see _ensure_builtins)."""
    from repro.protocols.pbft import PBFTSpec

    def pbft_behaviour(cls):
        def build(spec):
            def make(node_id, n, scheduler, network, rng, trace):
                return cls(
                    node_id,
                    n,
                    scheduler,
                    network,
                    rng,
                    trace,
                    q_eq=spec.q_eq,
                    q_per=spec.q_per,
                    q_vc=spec.q_vc,
                    q_vc_t=spec.q_vc_t,
                )

            return make

        return build

    from repro.sim.pbft.byzantine import (
        DoubleVoter,
        EquivocatingDoubleVoter,
        EquivocatingPrimary,
        SilentByzantine,
    )

    return [
        ("double-vote", PBFTSpec, pbft_behaviour(DoubleVoter)),
        ("equivocate", PBFTSpec, pbft_behaviour(EquivocatingPrimary)),
        ("equivocate+double-vote", PBFTSpec, pbft_behaviour(EquivocatingDoubleVoter)),
        ("silent", PBFTSpec, pbft_behaviour(SilentByzantine)),
    ]
