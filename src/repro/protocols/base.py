"""Protocol specifications: safety/liveness predicates over configurations.

The paper's method (§3) is to specialise each protocol's quorum-intersection
invariants into per-configuration predicates ("this failure configuration is
safe / live") and then aggregate over the configuration distribution.  A
:class:`ProtocolSpec` is exactly that pair of predicates.

Two evaluation interfaces are provided:

* ``is_safe(config)`` / ``is_live(config)`` — general, works for any
  predicate including ones that care *which* nodes failed (e.g.
  reliability-aware quorum placement);
* ``is_safe_counts(n, crash, byz)`` / ``is_live_counts`` — for *symmetric*
  protocols whose predicates depend only on the outcome counts.  Symmetric
  predicates unlock the Poisson-binomial counting estimator, which is exact
  and polynomial-time even for 100-node deployments.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.analysis.config import FailureConfig
from repro.errors import InvalidConfigurationError


class _IdentityKey:
    """Hashable stand-in for an unhashable spec attribute.

    Hashes/compares by object identity *while holding a reference*, so the
    id can never be recycled for as long as any cache key embedding this
    wrapper is alive — unlike a bare ``id()`` integer.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: object):
        self.obj = obj

    def __hash__(self) -> int:
        # Stable while self.obj is referenced — which this wrapper ensures.
        return id(self.obj)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _IdentityKey) and self.obj is other.obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_IdentityKey({self.obj!r})"


class ProtocolSpec(ABC):
    """Safety/liveness predicates of one consensus protocol deployment.

    Subclasses fix the deployment size ``n`` and quorum parameters at
    construction time; the predicates then classify failure configurations.
    """

    #: Human-readable protocol name used in results and tables.
    name: str = "protocol"

    def __init__(self, n: int):
        if n <= 0:
            raise InvalidConfigurationError(f"deployment size must be positive, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        """Deployment size the spec was instantiated for."""
        return self._n

    # ------------------------------------------------------------------
    # Symmetry: protocols whose predicates depend only on outcome counts
    # should override the *_counts methods and leave `symmetric` True.
    # ------------------------------------------------------------------
    @property
    def symmetric(self) -> bool:
        """Whether predicates depend only on (num_crashed, num_byzantine)."""
        return True

    def is_safe_counts(self, num_crashed: int, num_byzantine: int) -> bool:
        """Count-based safety predicate (symmetric protocols only)."""
        raise NotImplementedError(f"{type(self).__name__} has no count-based safety predicate")

    def is_live_counts(self, num_crashed: int, num_byzantine: int) -> bool:
        """Count-based liveness predicate (symmetric protocols only)."""
        raise NotImplementedError(f"{type(self).__name__} has no count-based liveness predicate")

    def grouping_key(self) -> tuple:
        """Hashable identity used by the engine for dedup and batching.

        Two specs with equal keys evaluate every configuration identically,
        so :class:`repro.engine.ReliabilityEngine` may share cached results
        between them.  The default key is the concrete class plus every
        public constructor-derived attribute; unhashable attributes fall
        back to object identity, which disables sharing (never incorrectly
        enables it) for exotic specs.  Specs are immutable after
        construction, so the key is computed once and stashed.
        """
        cached = getattr(self, "_grouping_key_cache", None)
        if cached is not None:
            return cached
        params: list[tuple[str, object]] = []
        for attr in sorted(self.__dict__):
            if attr.startswith("_"):
                continue
            value = self.__dict__[attr]
            try:
                hash(value)
            except TypeError:
                # Identity wrapper keeps the attribute alive, so the id can
                # never be recycled into a colliding key.
                value = _IdentityKey(value)
            params.append((attr, value))
        # The class object itself anchors the key: same-named classes from
        # different modules must never share cached results.
        key = (type(self), self._n, tuple(params))
        self._grouping_key_cache = key  # type: ignore[attr-defined]
        return key

    def verdict_masks(self):
        """Cached ``(n+1) x (n+1)`` safe/live truth tables over count pairs.

        The hook the vectorized kernels build on: predicates are evaluated
        once per :meth:`grouping_key` — equal specs built separately share
        one masks object — and every estimator afterwards reduces against
        the boolean arrays.  Specs are immutable after construction, so
        the cache never invalidates.  Symmetric specs only; raises
        :class:`~repro.errors.InvalidConfigurationError` otherwise.
        """
        from repro.analysis.kernels import verdict_masks

        return verdict_masks(self)

    # ------------------------------------------------------------------
    # Configuration-based predicates.  Default to the count-based ones;
    # asymmetric protocols override these directly.
    # ------------------------------------------------------------------
    def is_safe(self, config: FailureConfig) -> bool:
        """True when every run under ``config`` preserves agreement."""
        self._check_config(config)
        return self.is_safe_counts(config.num_crashed, config.num_byzantine)

    def is_live(self, config: FailureConfig) -> bool:
        """True when every run under ``config`` eventually commits all ops."""
        self._check_config(config)
        return self.is_live_counts(config.num_crashed, config.num_byzantine)

    def is_safe_and_live(self, config: FailureConfig) -> bool:
        return self.is_safe(config) and self.is_live(config)

    def _check_config(self, config: FailureConfig) -> None:
        if config.n != self._n:
            raise InvalidConfigurationError(
                f"configuration has {config.n} nodes but spec expects {self._n}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n})"


class SymmetricSpec(ProtocolSpec):
    """Convenience base for purely count-based protocol specs."""

    @property
    def symmetric(self) -> bool:
        return True


class AsymmetricSpec(ProtocolSpec):
    """Base for specs whose predicates inspect node identities.

    Subclasses must override :meth:`is_safe` and :meth:`is_live`; the
    count-based interface stays unavailable.
    """

    @property
    def symmetric(self) -> bool:
        return False

    @abstractmethod
    def is_safe(self, config: FailureConfig) -> bool:  # pragma: no cover - interface
        ...

    @abstractmethod
    def is_live(self, config: FailureConfig) -> bool:  # pragma: no cover - interface
        ...
