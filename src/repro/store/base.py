"""The session-store abstraction: durable payloads with a budget.

A :class:`SessionStore` keeps serialized planning sessions (JSON text
at rest) between requests, so a stateless service tier can restore and
resume them on every call.  The base class owns all *policy* —

* **TTL expiry** — entries older than ``ttl`` seconds are purged lazily
  on access and eagerly on :meth:`expire`; reading one raises the typed
  :class:`~repro.errors.SessionExpiredError` (a not-found subclass, so
  callers that only care about absence handle both the same way);
* **LRU eviction** — under a configurable entry/byte budget
  (``max_entries`` / ``max_bytes``) the least-recently-*used* entries
  are evicted to make room (reads refresh recency);
* **admission control** — with ``evict=False`` (or when a payload can
  never fit) the store refuses new writes with
  :class:`~repro.errors.AdmissionError` instead of silently dropping a
  live user's session: real backpressure, same exception the service's
  per-request caps already use.

Backends implement four text-level primitives (read/write/delete/scan);
:mod:`repro.store.memory` and :mod:`repro.store.disk` are the two
shipped ones.  The ``clock`` is injectable for deterministic TTL tests.
"""

from __future__ import annotations

import json
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import (
    AdmissionError,
    QueryError,
    SessionDecodeError,
    SessionExpiredError,
    SessionNotFoundError,
)

#: characters allowed in a session id (doubles as a safe file stem)
_ID_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def validate_session_id(session_id: str) -> str:
    """Reject ids that are empty, non-string, or unsafe as file stems."""
    if not isinstance(session_id, str) or not session_id:
        raise QueryError(f"session id must be a non-empty string, got {session_id!r}")
    if not set(session_id) <= _ID_CHARS or session_id.startswith("."):
        raise QueryError(
            f"session id {session_id!r} may only contain letters, digits, "
            "'.', '_', '-' and must not start with '.'"
        )
    return session_id


@dataclass
class _Entry:
    """Bookkeeping for one stored payload (the payload itself lives in
    the backend)."""

    size: int
    stored_at: float


@dataclass
class StoreStats:
    """Operation counters; ``hit_rate`` feeds the benchmark artifact."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_rate": self.hit_rate,
        }


@dataclass
class StoreBudget:
    """Configured capacity of a store (``None`` = unbounded)."""

    max_entries: int | None = None
    max_bytes: int | None = None
    ttl: float | None = None
    evict: bool = True

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 1:
            raise QueryError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        if self.max_bytes is not None and self.max_bytes < 1:
            raise QueryError(f"max_bytes must be >= 1, got {self.max_bytes}")
        if self.ttl is not None and self.ttl <= 0:
            raise QueryError(f"ttl must be positive, got {self.ttl}")


class SessionStore(ABC):
    """Abstract durable store for serialized sessions.

    Payloads are dicts in, dicts out; at rest they are JSON text.
    Subclasses provide the text-level primitives; all TTL/LRU/budget
    policy lives here so every backend behaves identically.

    Bookkeeping is O(1) per operation: entries sit in an access-ordered
    dict (least recently used first) and the byte total is kept
    running, so admission never re-sums sizes or scans for the LRU
    entry.
    """

    def __init__(
        self,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        ttl: float | None = None,
        evict: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.budget = StoreBudget(
            max_entries=max_entries,
            max_bytes=max_bytes,
            ttl=ttl,
            evict=evict,
        )
        self.stats = StoreStats()
        self._clock = clock
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        for session_id, size, stored_at in self._scan():
            self._entries[session_id] = _Entry(size=size, stored_at=stored_at)
            self._bytes += size

    # ------------------------------------------------------------------
    # backend primitives

    @abstractmethod
    def _read(self, session_id: str) -> str:
        """Raw payload text (the entry is known to exist)."""

    @abstractmethod
    def _write(self, session_id: str, text: str) -> None:
        """Persist payload text (create or replace)."""

    @abstractmethod
    def _delete(self, session_id: str) -> None:
        """Remove the payload (the entry is known to exist)."""

    @abstractmethod
    def _scan(self) -> Iterable[tuple[str, int, float]]:
        """Pre-existing entries at construction time:
        ``(session_id, size_bytes, stored_at)`` — lets a disk store
        adopt payloads written by an earlier process."""

    # ------------------------------------------------------------------
    # public API

    def put(self, session_id: str, payload: dict) -> None:
        """Store (or replace) a session payload under ``session_id``.

        Expired entries are purged first; then the write is admitted
        against the budget, evicting least-recently-used entries when
        the policy allows and refusing with
        :class:`~repro.errors.AdmissionError` when it does not.
        """
        validate_session_id(session_id)
        text = json.dumps(payload)
        self.expire()
        self._admit(session_id, len(text))
        self._write(session_id, text)
        old = self._entries.pop(session_id, None)
        if old is not None:
            self._bytes -= old.size
        self._entries[session_id] = _Entry(
            size=len(text), stored_at=self._clock()
        )
        self._bytes += len(text)
        self.stats.writes += 1

    def get(self, session_id: str) -> dict:
        """Fetch a payload; refreshes its LRU recency.

        Raises :class:`~repro.errors.SessionNotFoundError` for unknown
        or previously-deleted ids, :class:`~repro.errors.SessionExpiredError`
        for TTL-lapsed ones, and :class:`~repro.errors.SessionDecodeError`
        when the at-rest text is corrupted.
        """
        validate_session_id(session_id)
        entry = self._entries.get(session_id)
        if entry is None:
            self.stats.misses += 1
            raise SessionNotFoundError(
                f"unknown session {session_id!r} (never stored, closed, "
                "or evicted)"
            )
        if self._expired(entry):
            self._drop(session_id, counter="expirations")
            self.stats.misses += 1
            raise SessionExpiredError(
                f"session {session_id!r} expired after "
                f"{self.budget.ttl:g}s of inactivity"
            )
        text = self._read(session_id)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SessionDecodeError(
                f"stored session {session_id!r} is corrupted: {exc}",
                field="<json>",
            ) from exc
        self._entries.move_to_end(session_id)
        self.stats.hits += 1
        return payload

    def delete(self, session_id: str) -> bool:
        """Drop a payload; True if it existed."""
        validate_session_id(session_id)
        if session_id not in self._entries:
            return False
        self._drop(session_id)
        return True

    def expire(self) -> list[str]:
        """Purge every TTL-lapsed entry; returns the purged ids."""
        if self.budget.ttl is None:
            return []
        lapsed = [
            sid
            for sid, entry in self._entries.items()
            if self._expired(entry)
        ]
        for sid in lapsed:
            self._drop(sid, counter="expirations")
        return lapsed

    def touch(self, session_id: str) -> None:
        """Refresh TTL and recency without reading the payload."""
        validate_session_id(session_id)
        entry = self._entries.get(session_id)
        if entry is None or self._expired(entry):
            raise SessionNotFoundError(f"unknown session {session_id!r}")
        entry.stored_at = self._clock()
        self._entries.move_to_end(session_id)

    def ids(self) -> list[str]:
        """Live (non-expired) session ids, least recently used first."""
        self.expire()
        return list(self._entries)

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def __contains__(self, session_id: str) -> bool:
        entry = self._entries.get(session_id)
        return entry is not None and not self._expired(entry)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # policy internals

    def _expired(self, entry: _Entry) -> bool:
        ttl = self.budget.ttl
        return ttl is not None and self._clock() - entry.stored_at > ttl

    def _drop(self, session_id: str, *, counter: str | None = None) -> None:
        self._delete(session_id)
        self._bytes -= self._entries.pop(session_id).size
        if counter is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _admit(self, session_id: str, size: int) -> None:
        """Budget check for a pending write, evicting LRU if allowed."""
        budget = self.budget
        if budget.max_bytes is not None and size > budget.max_bytes:
            raise AdmissionError(
                f"session payload of {size} bytes can never fit the "
                f"store's max_bytes={budget.max_bytes} budget"
            )

        # a replacement frees its old payload and takes no new slot
        old = self._entries.get(session_id)
        base_entries = 1 if old is None else 0
        base_bytes = size - (0 if old is None else old.size)

        def over() -> bool:
            if (
                budget.max_entries is not None
                and len(self._entries) + base_entries > budget.max_entries
            ):
                return True
            return (
                budget.max_bytes is not None
                and self._bytes + base_bytes > budget.max_bytes
            )

        while over():
            lru = next(
                (sid for sid in self._entries if sid != session_id), None
            )
            if lru is None or not budget.evict:
                raise AdmissionError(
                    f"session store budget exhausted "
                    f"({len(self._entries)} entries, {self._bytes} "
                    f"bytes) and eviction is "
                    f"{'impossible' if lru is None else 'disabled'}; "
                    f"retry later or close a session"
                )
            self._drop(lru, counter="evictions")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({len(self._entries)} sessions, "
            f"{self.total_bytes} bytes)"
        )
