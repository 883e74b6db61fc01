"""Cluster specification and runtime instantiation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.trace import Recorder
from repro.hardware.fabric import Fabric
from repro.hardware.nic import Nic
from repro.hardware.node import Node
from repro.units import GiB, MB, US

__all__ = ["ClusterSpec", "Cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster (hardware + MPI library parameters).

    Data-size-like fields (``eager_threshold``) are expected to be given
    *already scaled* by the preset factories; see :mod:`repro.config`.
    """

    name: str
    num_nodes: int
    cores_per_node: int
    #: Per-NIC injection bandwidth, bytes/s (paper: ~2.6 GB/s crill, ~3.4 GB/s ibex).
    network_bandwidth: float
    #: One-way wire latency for inter-node messages, seconds.
    network_latency: float = 1.5 * US
    #: Intra-node (shared-memory) copy bandwidth, bytes/s.
    memory_bandwidth: float = 6_000 * MB
    #: Fixed software latency of an intra-node message, seconds.
    memory_latency: float = 0.4 * US

    # --- MPI library parameters (Open MPI master + UCX 1.6.1 in the paper) ---
    #: Messages below this size use the eager protocol (paper: 512 KiB; scaled).
    eager_threshold: int = 8192
    #: Fixed CPU overhead of entering any MPI call, seconds.
    mpi_call_overhead: float = 0.3 * US
    #: Cost of scanning one entry of the unexpected-message queue, seconds.
    match_cost_per_entry: float = 0.05 * US
    #: Fixed cost of posting/initiating one RMA Put (descriptor, registration cache hit).
    rma_put_overhead: float = 0.2 * US
    #: Per-origin lock/unlock round-trip overhead for passive-target RMA, seconds.
    rma_lock_overhead: float = 1.0 * US
    #: Whether the MPI library runs an asynchronous progress thread.
    progress_thread: bool = False

    # --- noise (shared vs dedicated system) ---
    #: Log-normal sigma applied to network transfer durations.
    network_noise_sigma: float = 0.0
    #: Log-normal sigma applied to storage service times (used by fs layer).
    storage_noise_sigma: float = 0.0

    #: Memory per node, bytes (not enforced; recorded for documentation).
    memory_per_node: int = 64 * GiB

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.cores_per_node < 1:
            raise ConfigurationError(
                f"cores_per_node must be >= 1, got {self.cores_per_node}"
            )
        if self.network_bandwidth <= 0:
            raise ConfigurationError("network_bandwidth must be positive")
        if self.eager_threshold < 0:
            raise ConfigurationError("eager_threshold must be >= 0")

    @property
    def total_cores(self) -> int:
        return self.num_nodes * self.cores_per_node

    def with_(self, **overrides) -> "ClusterSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    #: Fixed time constants that shrink together with data sizes so a
    #: scaled simulation is the full-size run with a compressed time unit
    #: (every latency/bandwidth ratio preserved exactly).
    TIME_FIELDS = (
        "network_latency",
        "memory_latency",
        "mpi_call_overhead",
        "match_cost_per_entry",
        "rma_put_overhead",
        "rma_lock_overhead",
    )

    def with_time_scale(self, scale: int) -> "ClusterSpec":
        """Divide every fixed time constant by ``scale`` (see above)."""
        if scale < 1:
            raise ConfigurationError(f"scale must be >= 1, got {scale}")
        return replace(self, **{f: getattr(self, f) / scale for f in self.TIME_FIELDS})


class Cluster:
    """A :class:`ClusterSpec` instantiated on a simulation engine.

    Provides the node/NIC objects, the fabric, the rank→node placement
    (block mapping, as ``mpirun`` defaults to) and shared RNG/trace
    facilities for all higher layers.
    """

    def __init__(
        self,
        engine: Engine,
        spec: ClusterSpec,
        seed: int = 0,
        recorder: Recorder | None = None,
    ) -> None:
        self.engine = engine
        self.spec = spec
        self.rng = RngStreams(seed)
        #: Shared recorder for all layers (the run's, when a pipeline
        #: builds this world; active if the run records spans).
        self.recorder = recorder if recorder is not None else Recorder()
        net_noise = (
            self.rng.lognormal_noise("network", spec.network_noise_sigma)
            if spec.network_noise_sigma > 0
            else None
        )
        self.nodes = [
            Node(
                engine,
                node_id=i,
                cores=spec.cores_per_node,
                memory_bandwidth=spec.memory_bandwidth,
                memory_latency=spec.memory_latency,
            )
            for i in range(spec.num_nodes)
        ]
        self.nics = [
            Nic(engine, node_id=i, bandwidth=spec.network_bandwidth)
            for i in range(spec.num_nodes)
        ]
        self.fabric = Fabric(
            engine,
            self.nodes,
            self.nics,
            wire_latency=spec.network_latency,
            intra_node_latency=spec.memory_latency,
            noise=net_noise,
        )

    def node_of_rank(self, rank: int) -> int:
        """Block placement: ranks fill node 0's cores, then node 1's, ..."""
        if rank < 0:
            raise ValueError(f"negative rank: {rank}")
        node = rank // self.spec.cores_per_node
        if node >= self.spec.num_nodes:
            raise ConfigurationError(
                f"rank {rank} does not fit on {self.spec.num_nodes} nodes of "
                f"{self.spec.cores_per_node} cores"
            )
        return node
