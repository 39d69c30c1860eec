"""Record types shared by the Section 3 measurement pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TracerouteHop:
    """One hop of a (rocket)traceroute.

    ``router_id`` is ``None`` when the router did not respond (the ``* * *``
    line of a real traceroute).  ``as_name``/``city`` are the annotations
    rockettrace derives from the router's DNS name — they reflect the *name*,
    which is occasionally misconfigured, not ground truth.
    """

    position: int
    router_id: int | None
    dns_name: str | None
    as_name: str | None
    city: str | None
    rtt_ms: float | None

    @property
    def responded(self) -> bool:
        return self.router_id is not None

    @property
    def annotated(self) -> bool:
        """True when rockettrace could infer an (AS, city) annotation."""
        return self.as_name is not None and self.city is not None


@dataclass(frozen=True)
class TracerouteResult:
    """A full trace from a source host toward a destination host."""

    src_host: int
    dst_host: int
    hops: tuple[TracerouteHop, ...]
    destination_responded: bool
    destination_rtt_ms: float | None

    def last_valid_router(self) -> int | None:
        """The closest upstream router of the destination.

        Per the paper: "the last router seen on the trace ... if none of the
        entries in the penultimate hop are valid, we go up to the next
        hop(s)".
        """
        for hop in reversed(self.hops):
            if hop.responded:
                return hop.router_id
        return None

    def annotation_groups(self) -> list[tuple[tuple[str, str], list[TracerouteHop]]]:
        """Consecutive runs of hops sharing an (AS, city) annotation.

        rockettrace's PoP heuristic: "routers annotated with the same AS and
        city reside in the same ISP PoP".
        """
        groups: list[tuple[tuple[str, str], list[TracerouteHop]]] = []
        for hop in self.hops:
            if not hop.annotated:
                continue
            key = (hop.as_name, hop.city)
            if groups and groups[-1][0] == key:
                groups[-1][1].append(hop)
            else:
                groups.append((key, [hop]))
        return groups

    def closest_upstream_pop(self) -> tuple[tuple[str, str], TracerouteHop] | None:
        """The (AS, city) PoP nearest upstream of the destination.

        Returns the PoP's annotation key and the hop of the PoP router
        nearest the destination, or ``None`` when no annotated hop exists.
        """
        groups = self.annotation_groups()
        if not groups:
            return None
        key, hops = groups[-1]
        return key, hops[-1]

    def hops_between(self, router_id: int) -> int | None:
        """Hop count between the destination and a router on this trace."""
        for index_from_end, hop in enumerate(reversed(self.hops)):
            if hop.router_id == router_id:
                return index_from_end + 1
        return None


@dataclass(frozen=True)
class DnsPairMeasurement:
    """Predicted vs King-measured latency for one DNS-server pair (Sec 3.1)."""

    server_a: int
    server_b: int
    predicted_ms: float
    measured_ms: float | None
    common_router_id: int | None  # the router prediction turned around at
    shared_below_pop: bool  # True when the common router is below the PoP
    hops_a: int | None  # server-a hops to the common router / PoP
    hops_b: int | None
    same_domain: bool

    @property
    def prediction_measure(self) -> float | None:
        """The paper's metric: predicted / measured latency."""
        if self.measured_ms is None or self.measured_ms <= 0:
            return None
        return self.predicted_ms / self.measured_ms


@dataclass
class ClusterOfPeers:
    """A cluster identified by the Section 3.2 pipeline.

    ``hub_router_id`` is the common upstream router (the cluster-hub);
    ``hub_latency_ms`` maps each member peer to its measured latency from
    the hub.
    """

    hub_router_id: int
    peer_ids: list[int] = field(default_factory=list)
    hub_latency_ms: dict[int, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.peer_ids)

    def latencies(self) -> list[float]:
        """Hub-to-peer latencies in peer order."""
        return [self.hub_latency_ms[p] for p in self.peer_ids]
