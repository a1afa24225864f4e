"""Single-flight coalescing for the batched query engine.

Many lookups collapse to a much smaller set of distinct terms; callers
racing on the same fresh term would each pay the full remote round
trip.  :class:`SingleFlight` coalesces concurrent identical queries so
that exactly one caller (the *leader*) performs the expensive work
while every other caller (a *waiter*) blocks on the leader's result
instead of re-issuing the query.

The pipeline itself runs Steps 1–2 in one thread of control; the
coalescer keeps :class:`~repro.resources.base.ExternalResource` safe
for callers that share one resource across threads.  It is
deterministic by construction: a coalesced waiter receives exactly the
tuple the leader cached, and a failed leader wakes its waiters
empty-handed so one of them retries — the answer never depends on
which thread won the race.
"""

from __future__ import annotations

import threading


class Flight:
    """One in-flight query: an event plus the leader's eventual result.

    ``result`` stays None when the leader failed; waiters observing None
    after the event fires must retry the query themselves.

    The event is created lazily, under the :class:`SingleFlight` lock,
    when the first waiter arrives (see :meth:`SingleFlight.claim`): an
    uncontended flight — every flight of a single-threaded run — never
    allocates one.  Reading :attr:`event` materializes it on demand,
    already set when the flight has completed, so the attribute behaves
    exactly as the eager version did.
    """

    __slots__ = ("_event", "_done", "result")

    def __init__(self) -> None:
        self._event: threading.Event | None = None
        self._done = False
        self.result: tuple[str, ...] | None = None

    def arm(self) -> threading.Event:
        """The flight's event, created on first use (set if completed).

        First-time arming must happen either under the owning
        :class:`SingleFlight` lock (the waiter path in ``claim``) or
        after the flight completed — concurrent unsynchronized first
        reads could otherwise each build their own event.
        """
        event = self._event
        if event is None:
            event = self._event = threading.Event()
            if self._done:
                event.set()
        return event

    @property
    def event(self) -> threading.Event:
        return self.arm()


class SingleFlight:
    """Per-key coalescing of concurrent identical queries.

    The first caller to :meth:`claim` a key becomes its leader and must
    later call :meth:`resolve` (success) or :meth:`abandon` (failure);
    callers that lose the claim receive the existing :class:`Flight` and
    wait on it.  Keys are removed on resolution, so a later query for
    the same key (e.g. after the leader failed) starts a fresh flight.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[str, Flight] = {}

    def claim(self, key: str) -> tuple[Flight, bool]:
        """Return ``(flight, is_leader)`` for ``key``."""
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                # First (and later) waiters arm the event while the
                # flight is still claimable; resolve/abandon pop under
                # this same lock, so a waiter that got the flight here
                # is always woken.
                flight.arm()
                return flight, False
            flight = Flight()
            self._flights[key] = flight
            return flight, True

    def resolve(self, key: str, flight: Flight, result: tuple[str, ...]) -> None:
        """Publish the leader's result and wake every waiter."""
        flight.result = result
        with self._lock:
            flight._done = True
            self._flights.pop(key, None)
            event = flight._event
        if event is not None:
            event.set()

    def abandon(self, key: str, flight: Flight) -> None:
        """Wake waiters empty-handed after a failed leader (they retry)."""
        with self._lock:
            flight._done = True
            self._flights.pop(key, None)
            event = flight._event
        if event is not None:
            event.set()

    @property
    def in_flight(self) -> int:
        """Number of queries currently being led (snapshot)."""
        with self._lock:
            return len(self._flights)
