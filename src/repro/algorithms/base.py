"""The common interface all nearest-peer algorithms implement."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable, Sequence

import numpy as np

from repro.topology.oracle import LatencyOracle, missing_oracle_members
from repro.util.errors import ConfigurationError
from repro.util.rng import make_rng


#: Membership-maintenance policies a scheme can declare (class attribute
#: ``NearestPeerAlgorithm.maintenance_policy``).  ``incremental`` means
#: :meth:`NearestPeerAlgorithm.join` / :meth:`~NearestPeerAlgorithm.leave`
#: patch the existing index in place (cost proportional to the event);
#: ``rebuild`` means every membership event re-runs the full offline build
#: with its probes counted, so the maintenance bill is honest the same way
#: the query probe bill is.
MAINTENANCE_POLICIES = ("incremental", "rebuild")

#: Maintenance-scheduling disciplines (the ``maintenance`` constructor
#: argument of :class:`NearestPeerAlgorithm`).  The member set is updated
#: the moment an event is observed; the discipline decides when the
#: scheme's *index* catches up.  ``eager`` applies every membership event
#: to the index at once (the historical behaviour, bit-identical).
#: ``coalesce`` buffers events and applies their *net* effect once per
#: ``window`` events, so a rebuild-policy scheme pays one reconstruction
#: per window instead of one per event (queries between flushes run
#: against the bounded-staleness index).  ``lazy`` buffers events until
#: the next query touches the stale index, so event-only phases cost
#: nothing and the whole deferred bill lands on the query that finally
#: needs the index fresh.  ``lazy-partial`` is the region-aware refinement
#: of ``lazy``: a query refreshes only the index *regions* it actually
#: reads (a region-sized rebuild per touched node instead of a full
#: |M|^2 flush), answering from a partially fresh index; a scheme that is
#: not a :class:`RegionIndexedSearch` runs it as ``lazy``.  Deferred
#: probes are billed when they fire, to the buffered events they apply.
MAINTENANCE_DISCIPLINES = ("eager", "coalesce", "lazy", "lazy-partial")


class MaintenanceLedger:
    """Exact per-cause attribution of maintenance probes.

    Every non-empty membership event observed after :meth:`build` gets a
    monotonically increasing *event id* (:meth:`new_event`), and every
    maintenance probe is charged (:meth:`charge`) to the event(s) that
    caused it: an eager event's bill lands on its own id, a flush's bill
    is split over the buffered ids it applied, and an on-demand region
    refresh is split over the ids still pending.  Probes with no
    membership-event cause (continuous overlay upkeep such as Meridian
    ring repair) accrue on the :attr:`background` bucket.

    The invariant ``sum(bills) + background == maintenance_probes_total``
    holds at every flush boundary, independent of scheduling order.  The
    ledger is the only place maintenance is attributed: daemon records
    derive their maintenance totals from it.
    """

    def __init__(self) -> None:
        self._bills: list[int] = []
        #: Maintenance probes with no membership-event cause.
        self.background = 0

    @property
    def n_events(self) -> int:
        """Membership events observed so far (== index *generation*)."""
        return len(self._bills)

    def new_event(self) -> int:
        """Allocate the next event id (one per non-empty join/leave)."""
        self._bills.append(0)
        return len(self._bills) - 1

    def charge(self, event_ids: Sequence[int], probes: int) -> None:
        """Split ``probes`` over ``event_ids`` deterministically.

        Each id gets ``probes // len(ids)``; the remainder goes to the
        earliest ids, one probe each — a fixed rule so bills are replayable
        regardless of which query triggered the flush.  With no ids the
        probes have no membership-event cause and fall to
        :attr:`background`.
        """
        probes = int(probes)
        if probes <= 0:
            return
        if not event_ids:
            self.background += probes
            return
        share, remainder = divmod(probes, len(event_ids))
        for rank, event_id in enumerate(event_ids):
            self._bills[event_id] += share + (1 if rank < remainder else 0)

    def bills(self) -> np.ndarray:
        """Per-event bills as an int64 array indexed by event id."""
        return np.asarray(self._bills, dtype=np.int64)

    def billed_between(self, start: int, stop: int) -> int:
        """Total probes billed to event ids ``start..stop-1``.

        O(stop - start), unlike slicing :meth:`bills`, which materialises
        the whole ledger — this is the per-event read the tracer makes
        after every membership tick.
        """
        return sum(self._bills[start:stop])

    @property
    def total(self) -> int:
        return sum(self._bills) + self.background

    def reset(self) -> None:
        self._bills = []
        self.background = 0


#: Events a bare ``"coalesce"`` spec buffers before each flush.
DEFAULT_COALESCE_WINDOW = 8


def _parse_maintenance(spec: str | None) -> tuple[str, int]:
    """A ``maintenance=`` spec as ``(discipline, coalesce window)``.

    Accepts ``None`` (eager) or a string: ``"eager"``, ``"lazy"``,
    ``"lazy-partial"``, ``"coalesce"`` (default window) or
    ``"coalesce:<k>"``; anything else is a :class:`ConfigurationError`.
    """
    if spec is None:
        return "eager", DEFAULT_COALESCE_WINDOW
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"maintenance spec must be a string, got {type(spec).__name__}"
        )
    name, _, arg = spec.partition(":")
    window = DEFAULT_COALESCE_WINDOW
    if arg:
        if name != "coalesce":
            raise ConfigurationError(
                f"only the coalesce discipline takes a window, got {spec!r}"
            )
        try:
            window = int(arg)
        except ValueError:
            raise ConfigurationError(f"bad coalesce window in {spec!r}") from None
    if name not in MAINTENANCE_DISCIPLINES:
        raise ConfigurationError(
            f"unknown maintenance discipline {name!r}; "
            f"choose from {MAINTENANCE_DISCIPLINES}"
        )
    if name == "coalesce" and window < 1:
        raise ConfigurationError(f"coalesce window must be >= 1, got {window}")
    return name, window


class ProbeRound:
    """One probe fan-out in struct-of-arrays form.

    Probe ``i`` is member ``srcs[i]`` measuring ``dsts[i]`` (the query
    target), observing ``rtts_ms[i]`` — also its completion time.  The
    stepwise query protocol (:meth:`NearestPeerAlgorithm.query_plan`)
    yields these.  The measurements have already happened through the
    algorithm's counted probe channel when the round is yielded, so
    accounting, noise-stream order and rng consumption are identical to
    the blocking :meth:`~NearestPeerAlgorithm.query` by construction; but
    the plan does not act on the values until the driver resumes it.  A
    latency-faithful driver (the simulated-time daemon) holds the resume
    until the slowest probe's RTT has elapsed on its clock; an
    instantaneous driver resumes at once and reproduces the blocking
    query bit for bit.  The daemon reads the parallel arrays
    directly, so a round of a thousand probes costs one numpy slice.
    """

    __slots__ = ("srcs", "dsts", "rtts_ms")

    def __init__(
        self,
        srcs: np.ndarray | Iterable[int],
        dsts: np.ndarray | Iterable[int] | int,
        rtts_ms: np.ndarray | Iterable[float],
    ) -> None:
        self.srcs = np.asarray(srcs, dtype=int)
        dst_arr = np.asarray(dsts, dtype=int)
        if dst_arr.ndim == 0:
            dst_arr = np.full(self.srcs.shape, int(dst_arr))
        self.dsts = dst_arr
        self.rtts_ms = np.asarray(rtts_ms, dtype=float)

    def __len__(self) -> int:
        return int(self.srcs.size)

    def __bool__(self) -> bool:
        return self.srcs.size > 0

    def __repr__(self) -> str:
        return f"ProbeRound(n={len(self)})"


#: The stepwise query protocol: a generator yielding probe rounds (each a
#: :class:`ProbeRound` fan-out that completes when its slowest probe does;
#: rounds are sequential) and returning the final :class:`SearchResult`
#: via ``StopIteration.value``.  Drive it with ``plan.send(None)``.
QueryPlan = Generator  # Generator[ProbeRound, None, SearchResult]


def probe_round(
    nodes: Iterable[int], target: int, values: Iterable[float]
) -> ProbeRound:
    """Package one fan-out (``nodes`` each probing ``target``) as a round."""
    return ProbeRound(nodes, int(target), values)


@dataclass
class SearchResult:
    """Outcome of one nearest-peer search.

    ``probes`` counts latency measurements involving the target — the
    paper's cost metric ("this translates to a lower bound on the number of
    latency probes performed").  ``aux_probes`` counts other measurements
    the query triggered (e.g. beacon-to-beacon).  Membership maintenance is
    not a query's cost: it is billed per event on the
    :class:`MaintenanceLedger`, even when a lazy flush runs at plan start.
    """

    target: int
    found: int
    found_latency_ms: float
    probes: int
    aux_probes: int = 0
    hops: int = 0
    path: list[int] = field(default_factory=list)

    @property
    def answered(self) -> bool:
        """False for the no-answer sentinel a fully-faulted plan returns."""
        return self.found >= 0


def _read_block(
    oracle: LatencyOracle | None,
    rows: np.ndarray | Iterable[int],
    cols: np.ndarray | Iterable[int],
) -> np.ndarray:
    """One ``latency_block`` read; an empty side reads nothing."""
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    if rows.size == 0 or cols.size == 0:
        return np.empty((rows.size, cols.size), dtype=float)
    assert oracle is not None
    return oracle.latency_block(rows, cols)


class NearestPeerAlgorithm(abc.ABC):
    """A nearest-peer search scheme over a dynamic member population.

    Lifecycle: construct with parameters, :meth:`build` once over the
    initial member set (this may take offline measurements — ring
    construction, coordinate embedding, hierarchy building), then
    :meth:`query` many times, interleaved with :meth:`join` /
    :meth:`leave` membership events.  Every measurement is one counted
    ``(rows × cols)`` block on one of three channels, so every bill is
    honest: a query learns about the target only through the query
    channel (:meth:`probe_block`, :meth:`probe_many`, :meth:`probe`),
    counts other query-time traffic on the aux channel
    (:meth:`aux_probe`), and builds or maintains its index through the
    index channel (:meth:`offline_probe_block`), which is free during
    :meth:`build` and billed as maintenance inside a join, leave, flush,
    region refresh or ring repair.

    Each scheme declares its ``maintenance_policy`` (see
    :data:`MAINTENANCE_POLICIES`): ``incremental`` schemes patch their
    index per event, ``rebuild`` schemes re-run the full build per event
    with every probe counted (``rebuild_count`` tracks how often).

    *When* maintenance fires is the discipline's call (the
    ``maintenance`` constructor argument, see
    :data:`MAINTENANCE_DISCIPLINES`): under the default ``eager``
    discipline events are applied immediately, while ``coalesce``/``lazy``
    buffer events and apply their net effect later — see :meth:`_flush`.

    Every scheme implements its search once, as the stepwise :meth:`_plan`
    generator: :meth:`query_plan` hands it to the simulated-time daemon,
    which times each probe fan-out as a round, and the blocking
    :meth:`query` drives it to completion with no delays.
    """

    #: Human-readable scheme name (class attribute).
    name: str = "abstract"
    #: Declared membership-maintenance policy (class attribute).
    maintenance_policy: str = "rebuild"

    def __init__(self, maintenance: str | None = None) -> None:
        self._oracle: LatencyOracle | None = None
        self._probe_oracle: LatencyOracle | None = None
        self._members: np.ndarray | None = None
        self._probe_count = 0
        self._aux_probe_count = 0
        self._maintenance_probe_count = 0
        self._in_maintenance = False
        self.rebuild_count = 0
        discipline, self._coalesce_window = _parse_maintenance(maintenance)
        if discipline == "lazy-partial" and not isinstance(
            self, RegionIndexedSearch
        ):
            discipline = "lazy"  # no regions to refresh one at a time
        self._discipline = discipline
        #: Exact per-cause probe attribution (event id -> probes).
        self._ledger = MaintenanceLedger()
        # Event ids buffered since the last flush (ledger attribution).
        self._pending_event_ids: list[int] = []
        # The membership the *index* currently reflects, or None when the
        # index is in sync with ``self._members``.  Member arrays are
        # replaced (never mutated in place), so holding the pre-event
        # reference is a free snapshot.
        self._indexed_members: np.ndarray | None = None
        # Struct-of-arrays liveness: a boolean mask over the oracle's id
        # space, maintained in O(changes) per membership event, plus the
        # identity of the member array it reflects (member arrays are
        # replaced, never mutated, so identity pins the mask's validity).
        self._member_mask: np.ndarray | None = None
        self._member_mask_for: np.ndarray | None = None
        # Observability hook, called as ``(event_ids, probes, kind)``
        # right after a deferred flush (kind="flush") or an on-demand
        # region refresh (kind="partial") charges the ledger.  The
        # daemon's tracer installs it; ``None`` (the default) costs one
        # attribute check on the flush path and nothing on queries.
        self._flush_observer = None

    # -- lifecycle -----------------------------------------------------------

    def build(
        self,
        oracle: LatencyOracle,
        member_ids: np.ndarray | list[int],
        seed: int | np.random.Generator | None = None,
        probe_oracle: LatencyOracle | None = None,
    ) -> None:
        """Index the member population (may probe freely: offline phase).

        ``probe_oracle`` supplies *query-time* measurements; pass a
        :class:`~repro.topology.oracle.NoisyOracle` to model the fact that
        real probes cannot resolve sub-millisecond differences — the honest
        setting for comparing schemes under the clustering condition
        (beacon triangulation, for one, is unrealistically sharp on exact
        latencies).

        Both oracles must implement the whole
        :class:`~repro.topology.oracle.LatencyOracle` contract; one that
        does not is rejected here with :class:`ConfigurationError`, not
        deep inside a query.
        """
        for role, candidate in (("oracle", oracle), ("probe_oracle", probe_oracle)):
            missing = [] if candidate is None else missing_oracle_members(candidate)
            if missing:
                raise ConfigurationError(
                    f"{self.name}: {role} {type(candidate).__name__} is not a "
                    f"LatencyOracle: missing {', '.join(missing)}"
                )
        self._oracle = oracle
        self._probe_oracle = probe_oracle or oracle
        self._members = np.asarray(member_ids, dtype=int)
        self._indexed_members = None
        self._reset_member_mask()
        self._ledger.reset()
        self._pending_event_ids = []
        self._build(make_rng(seed))

    def _reset_member_mask(self) -> None:
        """(Re)build the liveness mask from ``self._members``."""
        assert self._oracle is not None and self._members is not None
        mask = np.zeros(self._oracle.n_nodes, dtype=bool)
        mask[self._members] = True
        self._member_mask = mask
        self._member_mask_for = self._members

    def _update_member_mask(
        self,
        add: np.ndarray | None = None,
        remove: np.ndarray | None = None,
    ) -> None:
        """O(changes) mask maintenance after a membership event."""
        if remove is not None and remove.size:
            self._member_mask[remove] = False
        if add is not None and add.size:
            self._member_mask[add] = True
        self._member_mask_for = self._members

    def view_contains(self, node: int) -> bool | None:
        """O(1) membership test against the current query view, or ``None``.

        Answers only when the view a query reads (``self._members``,
        possibly a plan's swapped-in snapshot) is the very array the mask
        reflects; a stale indexed view under a deferred discipline returns
        ``None`` and callers take their O(n) slow path.  Queries use this
        to skip full-membership scans — the difference between O(n) and
        O(budget) per query at a million peers.
        """
        members = self._members
        if (
            members is None
            or self._member_mask is None
            or members is not self._member_mask_for
        ):
            return None
        if not 0 <= node < self._member_mask.size:
            return False
        return bool(self._member_mask[node])

    @abc.abstractmethod
    def _build(self, rng: np.random.Generator) -> None:
        """Subclass hook: construct internal structures."""

    def join(
        self,
        node_ids: np.ndarray | list[int],
        seed: int | np.random.Generator | None = None,
    ) -> int:
        """Admit ``node_ids`` into the membership; returns probes spent.

        The new ids must not already be members.  Maintenance follows the
        scheme's declared :attr:`maintenance_policy`: incremental schemes
        splice the arrivals into the existing index, rebuild schemes
        re-run the offline build over the grown membership with every
        probe counted.  The returned count (also accumulated on
        :attr:`maintenance_probes_total` and charged to the event on the
        :attr:`maintenance_ledger`) is the event's measurement bill.

        Under a deferred discipline (``coalesce``/``lazy``) the member set
        is updated immediately but the index is not: the event is buffered
        and the call returns 0 unless it triggers a coalesced
        :meth:`_flush`, whose bill it then returns.
        """
        if self._oracle is None or self._members is None:
            raise ConfigurationError(f"{self.name}: join() before build()")
        joined = np.unique(np.asarray(node_ids, dtype=int))
        if joined.size == 0:
            return 0
        if joined.min() < 0 or joined.max() >= self._oracle.n_nodes:
            raise ConfigurationError(
                f"{self.name}: join() ids outside oracle range "
                f"[0, {self._oracle.n_nodes})"
            )
        # O(|J|) duplicate check off the liveness mask, which always
        # reflects ``self._members`` between events.
        dup_hits = self._member_mask[joined]
        if dup_hits.any():
            raise ConfigurationError(
                f"{self.name}: join() ids already members: "
                f"{joined[dup_hits].tolist()[:8]}"
            )
        if self._discipline != "eager":
            return self._defer_event(
                np.concatenate([self._members, joined]), seed, joined=joined
            )
        event_id = self._ledger.new_event()
        self._members = np.concatenate([self._members, joined])
        self._update_member_mask(add=joined)
        return self._maintain([event_id], self._join, joined, make_rng(seed))

    def leave(
        self,
        node_ids: np.ndarray | list[int],
        seed: int | np.random.Generator | None = None,
    ) -> int:
        """Remove ``node_ids`` from the membership; returns probes spent.

        Every id must currently be a member, and at least two members must
        remain (schemes like Meridian need a non-degenerate overlay).  The
        per-policy maintenance and accounting mirror :meth:`join`.
        """
        if self._oracle is None or self._members is None:
            raise ConfigurationError(f"{self.name}: leave() before build()")
        left = np.unique(np.asarray(node_ids, dtype=int))
        if left.size == 0:
            return 0
        # An id outside the oracle range is no member either.
        is_member = (left >= 0) & (left < self._member_mask.size)
        is_member[is_member] = self._member_mask[left[is_member]]
        missing = left[~is_member]
        if missing.size:
            raise ConfigurationError(
                f"{self.name}: leave() ids not members: {missing.tolist()[:8]}"
            )
        kept_mask = ~np.isin(self._members, left)
        if int(kept_mask.sum()) < 2:
            raise ConfigurationError(
                f"{self.name}: leave() would drop membership below 2 "
                f"({int(kept_mask.sum())} would remain)"
            )
        if self._discipline != "eager":
            return self._defer_event(self._members[kept_mask], seed, left=left)
        event_id = self._ledger.new_event()
        self._members = self._members[kept_mask]
        self._update_member_mask(remove=left)
        return self._maintain(
            [event_id], self._leave, left, kept_mask, make_rng(seed)
        )

    def _maintain(
        self, event_ids: Sequence[int], work: Callable[..., object], *args
    ) -> int:
        """Run ``work(*args)`` as maintenance and bill it; returns probes spent.

        The one place a maintenance spend is measured and charged: the
        index channel bills as maintenance while ``work`` runs, and the ledger
        splits what it spent over ``event_ids`` (no ids: background).
        """
        before = self._maintenance_probe_count
        self._in_maintenance = True
        try:
            work(*args)
        finally:
            self._in_maintenance = False
        spent = self._maintenance_probe_count - before
        self._ledger.charge(event_ids, spent)
        return spent

    # -- deferred maintenance (non-eager disciplines) --------------------------

    def _defer_event(
        self,
        members_after: np.ndarray,
        seed: int | np.random.Generator | None,
        joined: np.ndarray | None = None,
        left: np.ndarray | None = None,
    ) -> int:
        """Buffer one observed membership event; flush if the window fills."""
        if self._indexed_members is None:
            self._indexed_members = self._members
        self._pending_event_ids.append(self._ledger.new_event())
        self._members = members_after
        self._update_member_mask(add=joined, remove=left)
        if (
            self._discipline == "coalesce"
            and len(self._pending_event_ids) >= self._coalesce_window
        ):
            return self._flush(make_rng(seed))
        return 0

    @property
    def maintenance_discipline(self) -> str:
        """The discipline in force (see :data:`MAINTENANCE_DISCIPLINES`)."""
        return self._discipline

    @property
    def has_pending_maintenance(self) -> bool:
        """Whether buffered events have yet to be applied to the index."""
        return self._indexed_members is not None

    @property
    def pending_maintenance_events(self) -> int:
        """Buffered events since the last flush."""
        return len(self._pending_event_ids)

    def flush_maintenance(
        self, seed: int | np.random.Generator | None = None
    ) -> int:
        """Apply all buffered events to the index now; returns probes spent.

        A no-op (0) when the index is already in sync.  A phased daemon
        run drains through here at every phase boundary (so an unfilled
        coalesce window cannot leave its bill off the phase's books);
        tests use it to force a deterministic application point.
        """
        if self._indexed_members is None:
            return 0
        return self._flush(make_rng(seed))

    def _flush(self, rng: np.random.Generator) -> int:
        """Apply the *net* buffered membership change to the index.

        Rebuild-policy schemes pay one counted reconstruction over the
        current membership, however many events were buffered — that is
        the whole point of coalescing.  Incremental schemes replay the net
        change through their own :meth:`_leave` / :meth:`_join` hooks:
        departures first (with ``kept_mask`` relative to the indexed
        member order the hooks' per-member arrays are aligned to), then
        arrivals appended behind the survivors.  A node that left and
        rejoined inside the buffer window nets out to nothing — its index
        entries are still valid — and a join-then-leave never touches the
        index at all.  After the flush the member array is the survivors
        (in indexed order) followed by the net arrivals, which keeps
        per-member index arrays aligned with :attr:`members`.
        """
        flushed = self._indexed_members
        assert flushed is not None
        event_ids = self._pending_event_ids
        spent = self._maintain(event_ids, self._apply_net_change, flushed, rng)
        self._indexed_members = None
        # A flush reorders the member array but never changes the member
        # *set* (deferred events updated mask and members in lock-step), so
        # the mask contents stay valid — only re-pin its identity anchor.
        self._member_mask_for = self._members
        if self._flush_observer is not None and event_ids:
            self._flush_observer(tuple(event_ids), spent, "flush")
        self._pending_event_ids = []
        return spent

    def _apply_net_change(
        self, flushed: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Re-align the index from the ``flushed`` membership to the live one."""
        current = self._members
        assert current is not None
        kept_mask = np.isin(flushed, current)
        survivors = flushed[kept_mask]
        net_left = flushed[~kept_mask]
        net_joined = current[~np.isin(current, flushed)]
        if net_left.size == 0 and net_joined.size == 0:
            # Every buffered event netted out (join-then-leave,
            # leave-then-rejoin): the index is already consistent — pay
            # nothing.  Incremental schemes restore the indexed member
            # order (their per-member arrays are aligned to it); rebuild
            # schemes key their index by node id, so the live order stays
            # — which keeps full and partial flushes on the same member
            # order, hence the same query draws.
            if self.maintenance_policy == "incremental":
                self._members = flushed
        elif self.maintenance_policy == "rebuild":
            self.rebuild_count += 1
            self._build(rng)
        else:
            if net_left.size:
                self._members = survivors
                self._leave(net_left, kept_mask, rng)
            if net_joined.size:
                self._members = np.concatenate([survivors, net_joined])
                self._join(net_joined, rng)
            else:
                self._members = survivors

    def _join(self, joined: np.ndarray, rng: np.random.Generator) -> None:
        """Subclass hook: maintain the index after ``joined`` were appended.

        Called with ``self.members`` already updated (arrivals appended at
        the end, in sorted id order).  The default is the counted-rebuild
        fallback: re-run :meth:`_build` with offline probes billed as
        maintenance.
        """
        self.rebuild_count += 1
        self._build(rng)

    def _leave(
        self,
        left: np.ndarray,
        kept_mask: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Subclass hook: maintain the index after ``left`` were removed.

        ``kept_mask`` is boolean over the *pre-event* member order (order
        is preserved for survivors), so incremental schemes can realign
        per-member arrays.  The default is the counted-rebuild fallback.
        """
        self.rebuild_count += 1
        self._build(rng)

    def query(
        self,
        target: int,
        seed: int | np.random.Generator | None = None,
    ) -> SearchResult:
        """Find the nearest member to ``target`` (not itself a member).

        Under the ``lazy`` discipline a stale index is flushed first (the
        ledger bills the flush to the buffered events); under ``coalesce``
        the query answers from the bounded-staleness index — it may return
        a recently departed member or miss a very recent arrival, exactly
        the trade real batched-repair deployments make.  Under
        ``lazy-partial`` nothing is flushed up front: the plan refreshes
        each region as it reads it (:meth:`RegionIndexedSearch.touch_region`),
        answering from a partially fresh index at a region-sized bill
        instead of a full one.

        This drives :meth:`query_plan` to completion with no delays, which
        is what makes zero-delay plan driving bit-identical to the blocking
        query: they are the same code.
        """
        if self._oracle is None or self._members is None:
            raise ConfigurationError(f"{self.name}: query() before build()")
        plan = self._drive_plan(int(target), make_rng(seed))
        try:
            while True:
                plan.send(None)
        except StopIteration as stop:
            return stop.value

    # -- stepwise query protocol (sans-io) -------------------------------------

    def query_plan(
        self,
        target: int,
        seed: int | np.random.Generator | None = None,
    ) -> QueryPlan:
        """The stepwise counterpart of :meth:`query`.

        Returns a generator that yields :class:`ProbeRound` probe rounds
        and finally returns the :class:`SearchResult` through
        ``StopIteration.value``.  Each round is a parallel fan-out whose
        measurements have *already been taken* through the counted probe
        channel; the driver decides when the round "completes" — after the
        simulated RTTs on the daemon's event loop, or immediately for an
        instantaneous driver.  Driving a fresh plan to exhaustion with no
        delay reproduces :meth:`query` bit for bit (same rng draws, same
        probes, same result) — the daemon's zero-delay regression anchors
        on this.

        Lazy-discipline flushes fire when the plan *starts* (its first
        ``send(None)``), mirroring the blocking query; under ``coalesce``
        the plan answers from the bounded-staleness indexed view.  The
        plan snapshots that member view once and re-presents it on every
        step, so a daemon whose membership churns mid-flight gives each
        in-flight query a consistent membership.
        """
        if self._oracle is None or self._members is None:
            raise ConfigurationError(f"{self.name}: query_plan() before build()")
        return self._drive_plan(int(target), make_rng(seed))

    def _drive_plan(self, target: int, rng: np.random.Generator) -> QueryPlan:
        """Wrap :meth:`_plan` with the bookkeeping every query needs.

        A stale index is flushed first when the discipline asks for it,
        and the plan answers from the member view the index reflects.

        Per-plan probe counters are swapped into the shared slots around
        every generator step, so concurrently in-flight plans (the daemon
        interleaves them on one event loop) each keep an exact private
        bill; likewise the plan's member view is swapped in so a step
        never sees a membership newer than its snapshot.
        """
        if self._indexed_members is not None and self._discipline == "lazy":
            self._flush(rng)
        if self._discipline == "lazy-partial":
            # Partial freshness answers from the *live* membership — the
            # regions the plan touches are refreshed against it on demand.
            view = self._members
        else:
            view = (
                self._indexed_members
                if self._indexed_members is not None
                else self._members
            )
        inner = self._plan(target, rng)
        probes = 0
        aux = 0
        result: SearchResult | None = None
        sent = None
        while True:
            live = self._members
            saved_probes, saved_aux = self._probe_count, self._aux_probe_count
            self._members = view
            self._probe_count, self._aux_probe_count = probes, aux
            try:
                batch = inner.send(sent)
            except StopIteration as stop:
                result = stop.value
                break
            finally:
                probes, aux = self._probe_count, self._aux_probe_count
                self._members = live
                self._probe_count, self._aux_probe_count = saved_probes, saved_aux
            # A fault-aware driver answers each round with a per-probe
            # outcome mask (None means every probe was answered); forward
            # it into the plan so schemes can degrade to the survivors.
            sent = yield batch
        if result is None:
            raise ConfigurationError(
                f"{self.name}: query plan finished without a SearchResult"
            )
        result.probes = probes
        result.aux_probes = aux
        return result

    @abc.abstractmethod
    def _plan(self, target: int, rng: np.random.Generator) -> QueryPlan:
        """Subclass hook: the stepwise search (generator).

        One ``yield`` per probe fan-out — a :class:`ProbeRound` whose
        measurements were already taken through the counted probe
        channel — and the final :class:`SearchResult` as the return
        value.  Under faults the daemon sends back each round's per-probe
        answered mask (``None`` when every probe was answered).
        """

    # -- probing --------------------------------------------------------------

    @property
    def members(self) -> np.ndarray:
        if self._members is None:
            raise ConfigurationError(f"{self.name}: not built yet")
        return self._members

    @property
    def oracle(self) -> LatencyOracle:
        if self._oracle is None:
            raise ConfigurationError(f"{self.name}: not built yet")
        return self._oracle

    # Every measurement is one (rows x cols) block read on one of three
    # billing channels.  Each channel has one counting method — the only
    # code that moves its counter — and every other name is a shape
    # adapter over it.

    def probe_block(
        self, rows: np.ndarray | list[int], cols: np.ndarray | list[int]
    ) -> np.ndarray:
        """Query channel: a block of probe-oracle measurements, one probe
        per element on the plan's bill."""
        block = _read_block(self._probe_oracle, rows, cols)
        self._probe_count += block.size
        return block

    def probe_many(
        self, nodes: np.ndarray | list[int], target: int
    ) -> np.ndarray:
        """Counted RTTs from each of ``nodes`` to the target, measured as
        ``latency_ms(node, target)``: one probe per element."""
        return self.probe_block(nodes, [int(target)])[:, 0]

    def probe(self, node: int, target: int) -> float:
        """Measure RTT between a member and the target (counted, noisy)."""
        return float(self.probe_block([int(node)], [int(target)])[0, 0])

    def aux_probe(self, a: int, b: int) -> float:
        """Aux channel: RTT between two non-target nodes at query time.

        Counted separately from target probes (the paper's lower bound is
        about target measurements), e.g. beacon-to-beacon traffic a query
        triggers.
        """
        block = _read_block(self._probe_oracle, [int(a)], [int(b)])
        self._aux_probe_count += block.size
        return float(block[0, 0])

    def offline_probe_block(
        self, rows: np.ndarray | list[int], cols: np.ndarray | list[int]
    ) -> np.ndarray:
        """Index channel: a block of build-oracle RTTs (one probe per element).

        Offline during :meth:`build`; billed as maintenance when the same
        code runs inside :meth:`_maintain` — a join, leave, flush, region
        refresh or ring repair.  Substrates that build an index (the
        Meridian overlay, the GNP embedding) take this as their
        ``measure`` callable, so their measurements stay on the books.
        """
        block = _read_block(self.oracle, rows, cols)
        if self._in_maintenance:
            self._maintenance_probe_count += block.size
        return block

    # -- maintenance accounting ----------------------------------------------

    @property
    def maintenance_probes_total(self) -> int:
        """All maintenance measurements since :meth:`build` (cumulative)."""
        return self._maintenance_probe_count

    @property
    def maintenance_ledger(self) -> MaintenanceLedger:
        """The exact per-cause probe ledger (see :class:`MaintenanceLedger`)."""
        return self._ledger

    @property
    def maintenance_by_event(self) -> np.ndarray:
        """Exact per-membership-event maintenance bills, indexed by event id.

        Event ids are allocated in observation order (one per non-empty
        :meth:`join` / :meth:`leave` since :meth:`build`), so this array
        lines up 1:1 with the daemon's membership-event sequence.  The
        bills are invariant to the order in which in-flight queries
        finish.
        """
        return self._ledger.bills()

    @property
    def maintenance_background_probes(self) -> int:
        """Maintenance probes with no membership-event cause (e.g. ring repair)."""
        return self._ledger.background

    def _offer_round(self, nodes, target: int, values):
        """Yield one probe fan-out and apply the driver's outcome mask.

        Native plans use this as
        ``kept, vals, idx = yield from self._offer_round(nodes, t, vals)``.
        The driver may answer the ``yield`` with a boolean mask saying
        which probes were actually answered (``None`` — every blocking
        query and every fault-free daemon round — means all of them).
        Returns the surviving ``(nodes, values, indices)``: the node ids
        whose measurements arrived, their values, and their positions in
        the offered round — so a scheme can keep aligned side tables
        (e.g. beaconing's distance-table rows) consistent with what it
        actually learned.
        """
        values = np.asarray(values, dtype=float)
        mask = yield probe_round(nodes, target, values)
        node_list = [int(n) for n in nodes]
        if mask is None:
            return node_list, values, np.arange(len(node_list))
        mask = np.asarray(mask, dtype=bool)
        if mask.size != len(node_list):
            raise ConfigurationError(
                f"{self.name}: round mask size {mask.size} != "
                f"{len(node_list)} probes"
            )
        kept = [n for n, ok in zip(node_list, mask.tolist()) if ok]
        return kept, values[mask], np.flatnonzero(mask)

    def no_answer(self, target: int) -> SearchResult:
        """The failure sentinel: every probe this plan issued was lost.

        Only reachable under an active fault model (a blocking query's
        rounds are never masked).  The daemon retries the query after a
        backoff, unless the retry would start at or after the query's
        deadline; then this is the query's final result (``found = -1``).
        Either way the failed attempt's probe bill stays on the query.
        """
        return SearchResult(
            target=target,
            found=-1,
            found_latency_ms=float("inf"),
            probes=self._probe_count,
            aux_probes=self._aux_probe_count,
        )

    def result(
        self,
        target: int,
        measured: dict[int, float],
        hops: int = 0,
        path: list[int] | None = None,
    ) -> SearchResult:
        """Build a result from the probe log (found = argmin)."""
        if not measured:
            raise ConfigurationError(f"{self.name}: query probed nothing")
        found = min(measured, key=measured.get)
        return SearchResult(
            target=target,
            found=found,
            found_latency_ms=measured[found],
            probes=self._probe_count,
            aux_probes=self._aux_probe_count,
            hops=hops,
            path=path or [],
        )


class RegionIndexedSearch(NearestPeerAlgorithm):
    """A rebuild-policy scheme whose index is one *region* per member.

    Node ``v``'s region (karger-ruhl: its sampled ball hierarchy;
    tapestry: its routing table) depends only on the membership, the
    region base (one rng draw per :meth:`build`) and the index
    generation (:attr:`maintenance_generation`).  A region rebuilt on its
    own therefore holds bit-identical content to the same region inside a
    full rebuild at that generation, and full rebuilds consume nothing
    from the caller's rng.  That is what lets ``lazy-partial`` refresh
    only the regions a query reads (:meth:`touch_region`) and still
    return exactly the answers a full ``lazy`` flush would.

    Subclasses implement :meth:`_build_region` and :meth:`_plan`.
    """

    maintenance_policy = "rebuild"

    def __init__(self, maintenance: str | None = None) -> None:
        super().__init__(maintenance=maintenance)
        #: node -> its region, as :meth:`_build_region` returned it.
        self._index: dict[int, object] = {}
        # The seed of every region stream, the generation the whole index
        # reflects, and per-region overrides for regions refreshed on
        # demand since then.
        self._region_base: int | None = None
        self._index_gen = 0
        self._region_gen: dict[int, int] = {}

    def build(
        self,
        oracle: LatencyOracle,
        member_ids: np.ndarray | list[int],
        seed: int | np.random.Generator | None = None,
        probe_oracle: LatencyOracle | None = None,
    ) -> None:
        self._region_base = None  # a fresh build draws a fresh base
        super().build(oracle, member_ids, seed=seed, probe_oracle=probe_oracle)

    @abc.abstractmethod
    def _build_region(self, node: int) -> object:
        """Build ``node``'s region against the current membership.

        Measures through :meth:`offline_probe_block`, so a refresh run
        as maintenance carries its honest region-sized bill.
        """

    @property
    def maintenance_generation(self) -> int:
        """Membership events observed since :meth:`build` (the ledger length).

        Region rng streams are keyed by it, so a region refreshed on
        demand at generation ``g`` matches a full rebuild at ``g``.
        """
        return self._ledger.n_events

    def _build(self, rng: np.random.Generator) -> None:
        if self._region_base is None:
            # One draw pins every region stream; rebuilds consume nothing.
            self._region_base = int(rng.integers(2**63))
        self._index = {}
        for node in self.members:
            node = int(node)
            self._index[node] = self._build_region(node)
        self._note_index_current()

    def _region_is_fresh(self, node: int) -> bool:
        return (
            self._region_gen.get(node, self._index_gen)
            == self.maintenance_generation
        )

    def _refresh_region(self, node: int) -> None:
        self._index[node] = self._build_region(node)
        self._region_gen[node] = self.maintenance_generation

    def _note_index_current(self) -> None:
        """Declare every region fresh and drop departed members' regions."""
        self._index_gen = self.maintenance_generation
        self._region_gen = {}
        if len(self._index) != self.members.size:
            live = set(self.members.tolist())
            for node in [n for n in self._index if n not in live]:
                del self._index[node]

    def _apply_net_change(
        self, flushed: np.ndarray, rng: np.random.Generator
    ) -> None:
        if self._discipline != "lazy-partial":
            super()._apply_net_change(flushed, rng)
            return
        # A forced flush under lazy-partial brings only the still-stale
        # regions up to date: a region a query already refreshed at this
        # generation is not rebuilt (or billed) twice.  When every
        # buffered event netted out the regions still describe the live
        # membership, and the index only catches up with the generation.
        members = self.members
        netted_out = flushed.size == members.size and bool(
            self._member_mask[flushed].all()
        )
        if not netted_out:
            for node in members.tolist():
                if not self._region_is_fresh(node):
                    self._refresh_region(node)
        self._note_index_current()

    def touch_region(self, node: int) -> int:
        """Refresh one region on demand (the partial-freshness read path).

        Native plans call this immediately before reading a node's
        region.  Outside ``lazy-partial``, with nothing pending, or when
        the region is already fresh this is a cheap no-op.  The
        region-sized bill is split over the pending event ids *without*
        retiring them: later touches (or the eventual full flush) keep
        charging the same causes until the buffer drains.
        """
        node = int(node)
        if (
            self._discipline != "lazy-partial"
            or self._indexed_members is None
            or self._region_is_fresh(node)
        ):
            return 0
        spent = self._maintain(self._pending_event_ids, self._refresh_region, node)
        if self._flush_observer is not None and spent:
            self._flush_observer(tuple(self._pending_event_ids), spent, "partial")
        return spent
