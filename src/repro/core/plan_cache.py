"""Reusable collective plans: signature-keyed caching of MCIO planning.

The MCIO planning pipeline (group division → partition tree → remerge →
aggregator location) runs from scratch on every collective call, yet the
dominant workloads — checkpoint loops, IOR phases, figure sweeps —
repeat the same access pattern dozens of times.  This module keys a
finished plan by a deterministic signature of everything planning reads:

* the gathered **access patterns** (value-hashed, order-sensitive);
* the planning-relevant **config** (the frozen dataclass itself);
* the **live-node set** (failed hosts are soft-excluded by the planner,
  so a node dying or recovering must produce a different key);
* the PFS **stripe size** (bisection cuts align to it);
* a **memory-state bucket digest** — each node's available memory
  quantized into the remerge-relevant buckets of
  :func:`repro.cluster.memory.availability_bucket`, so the wiggle of a
  background-load walk reuses the plan while crossing a ``Mem_min`` /
  ``Msg_ind`` threshold forces a replan.

A hit returns the cached ``(plan, tier, reason)`` triple — including the
:class:`~repro.core.engine.ExecutionPlan` with its compiled round
schedule already built.  Entries are dropped three ways:

* **stale digest** — the signature matches but a node's memory crossed a
  bucket boundary since the plan was built (counted as an invalidation,
  then replanned);
* **fault events** — wire an injector with
  :meth:`PlanCache.on_fault_event` (see
  :meth:`~repro.core.mcio.MemoryConsciousCollectiveIO.watch_faults`) and
  every applied or reverted fault clears the cache;
* **failover** — the engine clears the cache whenever a collective
  performed a mid-run aggregator failover, so the next call replans
  against the post-failover cluster.

Cache behaviour never changes simulated time: planning costs no
simulated seconds, only host CPU, so a cache-enabled run's trace is
bit-identical to a cache-disabled run whenever the memory state is
stable enough that replanning would reproduce the cached plan.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Optional, Sequence

from repro.cluster.memory import availability_bucket
from repro.obs.tracer import NULL_TRACER, PID_PLANNER

__all__ = ["PlanCache", "PlanCacheStats"]


@dataclass
class PlanCacheStats:
    """Cumulative cache counters (engine lifetime, not per collective)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """LRU cache of finished planning results.

    Parameters
    ----------
    enabled:
        A disabled cache never stores or returns entries (every call is
        a pass-through), so the engine code needs no branching.
    capacity:
        Maximum distinct signatures retained; least-recently-used
        entries are evicted beyond this.
    """

    def __init__(self, enabled: bool = True, capacity: int = 16):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.enabled = bool(enabled)
        self.capacity = int(capacity)
        #: Owning tenant in a multi-tenant environment (None = sole
        #: tenant).  :meth:`on_lease_event` ignores foreign tenants'
        #: tagged leases so one job's lease churn never drops another
        #: job's entries.
        self.tenant: Optional[str] = None
        self.stats = PlanCacheStats()
        #: Reasons of explicit invalidations, newest last (diagnostics).
        self.invalidation_log: list[str] = []
        #: Trace sink; the owning engine points this at its environment's
        #: tracer before each collective (the cache itself has no env).
        self.tracer = NULL_TRACER
        self._entries: OrderedDict[Hashable, tuple[Any, Any]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # keying
    # ------------------------------------------------------------------
    @staticmethod
    def signature(
        patterns: Sequence[Any],
        config: Any,
        failed_nodes: frozenset,
        stripe_size: int,
        lease_digest: tuple = (),
    ) -> Hashable:
        """Deterministic key of the non-memory planning inputs.

        `lease_digest` is the ledger's active-lease fingerprint
        (:meth:`repro.cluster.memory.LeaseLedger.digest`): outstanding
        remote-memory leases pin lender capacity the placer must not
        re-promise, so plans built against different lease sets never
        alias.
        """
        return (
            tuple(patterns),
            config,
            frozenset(failed_nodes),
            stripe_size,
            tuple(lease_digest),
        )

    @staticmethod
    def memory_digest(memory_available: Mapping[int, int], config: Any) -> tuple:
        """Bucketed per-node digest of the run-time memory snapshot.

        Buckets are the thresholds the planner actually compares against
        (``min_buffer``, ``Mem_min``, half the effective per-aggregator
        requirement, the nominal buffer) plus a ``Msg_ind`` quantization
        of the remaining headroom — crossing any of them can change
        remerge or placement decisions, so it must produce a different
        digest; movement inside a bucket cannot, so the plan is reused.
        """
        requirement = max(
            config.mem_min, min(config.cb_buffer_size, config.msg_ind)
        )
        thresholds = (
            config.min_buffer,
            config.mem_min,
            max(1, requirement // 2),
            config.cb_buffer_size,
        )
        return tuple(
            (node_id, availability_bucket(avail, thresholds, config.msg_ind))
            for node_id, avail in sorted(memory_available.items())
        )

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable, digest: tuple) -> Optional[Any]:
        """Return the cached entry for `key`, or None (counting why).

        A present entry whose memory digest no longer matches is dropped
        and counted as an invalidation (the caller replans); an absent
        entry is a plain miss.
        """
        if not self.enabled:
            return None
        held = self._entries.get(key)
        if held is not None:
            held_digest, entry = held
            if held_digest == digest:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                if self.tracer.enabled:
                    self.tracer.instant(
                        "plan_cache", "plan_cache.hit", PID_PLANNER, 0,
                        entries=len(self._entries),
                    )
                return entry
            del self._entries[key]
            self.stats.invalidations += 1
            self.invalidation_log.append("memory-bucket-crossed")
            if self.tracer.enabled:
                self.tracer.instant(
                    "plan_cache", "plan_cache.invalidate", PID_PLANNER, 0,
                    reason="memory-bucket-crossed",
                )
        self.stats.misses += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "plan_cache", "plan_cache.miss", PID_PLANNER, 0,
                entries=len(self._entries),
            )
        return None

    def store(self, key: Hashable, digest: tuple, entry: Any) -> None:
        """Retain `entry` under ``(key, digest)``, evicting LRU overflow."""
        if not self.enabled:
            return
        self._entries[key] = (digest, entry)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self, reason: str = "explicit") -> int:
        """Drop every entry; returns how many were dropped.

        Counted once per call (not per entry): the counter tracks
        invalidation *events*, mirroring how hits and misses count
        collectives.  Calls that find an already-empty cache still count
        — the triggering event (fault, failover) happened either way.
        """
        dropped = len(self._entries)
        self._entries.clear()
        if self.enabled:
            self.stats.invalidations += 1
            self.invalidation_log.append(reason)
            if self.tracer.enabled:
                self.tracer.instant(
                    "plan_cache", "plan_cache.invalidate", PID_PLANNER, 0,
                    reason=reason, dropped=dropped,
                )
        return dropped

    def on_fault_event(self, event: Any, phase: str = "apply") -> None:
        """Fault-injector listener: any fault activity clears the cache.

        Both the apply and the revert edge invalidate — a fault ending
        (memory shock released, node recovered) changes planning inputs
        just as much as one starting.
        """
        self.invalidate(f"fault:{getattr(event, 'kind', event)}:{phase}")

    def on_lease_event(self, lease: Any, event: str) -> None:
        """Lease-ledger listener: lease churn clears the cache.

        A grant pins lender memory a cached plan may have counted on; a
        revoke or expiry frees capacity that could change placement.
        Releases at normal end-of-collective return the ledger to the
        pre-grant state the next planning pass observes anyway, so they
        do not invalidate on their own.  In a multi-tenant environment a
        lease tagged with a *different* tenant is ignored: its memory
        impact reaches this tenant through the memory-bucket digest, not
        through a cache wipe.  Untagged leases invalidate everyone.
        """
        if event not in ("grant", "revoke", "expire"):
            return
        lease_tenant = getattr(lease, "tenant", None)
        if (
            self.tenant is not None
            and lease_tenant is not None
            and lease_tenant != self.tenant
        ):
            return
        self.invalidate(f"lease:{event}")

    def clear(self) -> None:
        """Drop all entries without counting an invalidation (test aid)."""
        self._entries.clear()
