"""Simulated compute node: cores, memory, NIC."""

from __future__ import annotations

from repro.sim import Environment, Resource

from .memory import MemoryModel
from .spec import NodeSpec

__all__ = ["Node"]


class Node:
    """One compute node inside a simulated cluster.

    Exposes the three contended resources the paper reasons about:

    * :attr:`memory` — capacity/availability tracking with paging penalty;
    * :attr:`mem_bus` — ``memory_channels`` slots; holding one charges
      bandwidth ``spec.memory_bandwidth / spec.memory_channels``, so
      concurrent copies on one node fight for off-chip bandwidth;
    * :attr:`nic_tx` / :attr:`nic_rx` — injection/ejection engines, one
      message at a time each, so shuffle traffic into one aggregator
      serializes at its NIC.
    """

    def __init__(
        self,
        env: Environment,
        node_id: int,
        spec: NodeSpec,
        paging_penalty: float = 4.0,
    ):
        self.env = env
        self.node_id = int(node_id)
        self.spec = spec
        self.memory = MemoryModel(
            capacity_bytes=spec.memory_bytes, paging_penalty=paging_penalty
        )
        self.mem_bus = Resource(
            env, capacity=spec.memory_channels, name=f"node{node_id}.membus"
        )
        self.nic_tx = Resource(env, capacity=1, name=f"node{node_id}.tx")
        self.nic_rx = Resource(env, capacity=1, name=f"node{node_id}.rx")
        #: Fault-model state: a failed host is not dead — its processes
        #: limp along (OS thrash, reboot, fenced NIC) at `failure_slowdown`
        #: times the healthy speed, and planners/failover must avoid it.
        self.failed = False
        self.failure_slowdown = 1.0
        #: Owning :class:`~repro.cluster.cluster.Cluster`, whose
        #: ``failed_hosts`` count :meth:`fail` and :meth:`recover` keep
        #: in step (None for a free-standing node).
        self.cluster = None

    def fail(self, slowdown: float = 16.0) -> None:
        """Mark this host failed; local memory traffic slows by `slowdown`."""
        if slowdown < 1.0:
            raise ValueError("failure slowdown must be >= 1.0")
        if not self.failed and self.cluster is not None:
            self.cluster.failed_hosts += 1
        self.failed = True
        self.failure_slowdown = float(slowdown)

    def recover(self) -> None:
        """Return the host to healthy operation."""
        if self.failed and self.cluster is not None:
            self.cluster.failed_hosts -= 1
        self.failed = False
        self.failure_slowdown = 1.0

    @property
    def channel_bandwidth(self) -> float:
        """Bytes/second deliverable by one memory channel."""
        return self.spec.memory_bandwidth / self.spec.memory_channels

    def memcopy(self, nbytes: int, paged: bool = False):
        """Process generator: move `nbytes` through this node's memory system.

        Acquires one memory channel FIFO-fairly and holds it for the copy
        time; with `paged` the copy is throttled by the node's *current*
        graded paging factor (1.0 when commitments fit available memory,
        up to the full penalty under deep overcommit).
        """
        req = self.mem_bus.request()
        yield req
        try:
            factor = self.memory.current_paging_factor if paged else 1.0
            if self.failed:
                factor *= self.failure_slowdown
            t = self.memory.copy_time(nbytes, self.channel_bandwidth) * factor
            yield self.env.sleep(t)
        finally:
            self.mem_bus.release(req)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.node_id} cores={self.spec.cores}>"
