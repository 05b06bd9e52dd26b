"""Timelines: ordered, pageable collections of toots.

Mastodon presents three timelines (home, local, federated).  The crawler
in the paper iterated over the *federated* timeline of every instance via
the public API, paging backwards with ``max_id``.  This module provides a
single :class:`Timeline` class with exactly that paging behaviour.
The object generator fills every timeline one toot at a time, with ids
almost always increasing, so :meth:`Timeline.add` appends those and
bisects only the rare older arrival.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import Iterator

import numpy as np

from repro.fediverse.entities import Toot

#: Default page size used by the Mastodon public timeline API.
DEFAULT_PAGE_SIZE = 40

_TOOT_ID = attrgetter("toot_id")


class Timeline:
    """An append-only, id-ordered collection of toots with API-style paging.

    Toots are kept sorted by ``toot_id`` (ids are allocated monotonically
    by the network, so id order equals chronological order).  A toot whose
    id is above the newest — almost every toot, since ids reach a timeline
    in increasing order — is appended; only an older one is bisected into
    place.  Paging uses the Mastodon convention: ``page(max_id=x)`` returns
    the ``limit`` newest toots whose id is strictly smaller than ``x``.
    """

    def __init__(self) -> None:
        self._toots: list[Toot] = []
        self._ids: set[int] = set()

    def __len__(self) -> int:
        return len(self._toots)

    def __iter__(self) -> Iterator[Toot]:
        return iter(self._toots)

    def __contains__(self, toot_id: int) -> bool:
        return toot_id in self._ids

    def add(self, toot: Toot) -> bool:
        """Insert a toot, keeping id order.  Returns ``False`` on duplicates."""
        toot_id = toot.toot_id
        if toot_id in self._ids:
            return False
        self._ids.add(toot_id)
        toots = self._toots
        if not toots or toot_id > toots[-1].toot_id:
            toots.append(toot)
        else:
            insort(toots, toot, key=_TOOT_ID)
        return True

    def newest_id(self) -> int | None:
        """Return the largest toot id on the timeline, or ``None`` if empty."""
        return self._toots[-1].toot_id if self._toots else None

    def oldest_id(self) -> int | None:
        """Return the smallest toot id on the timeline, or ``None`` if empty."""
        return self._toots[0].toot_id if self._toots else None

    def page(
        self,
        max_id: int | None = None,
        limit: int = DEFAULT_PAGE_SIZE,
        public_only: bool = True,
    ) -> list[Toot]:
        """Return up to ``limit`` toots older than ``max_id``, newest first.

        With ``max_id=None`` the newest toots are returned.  Setting
        ``public_only`` filters out private toots, matching what the public
        timeline API exposes to an unauthenticated crawler.
        """
        if limit <= 0:
            return []
        # the list is id-sorted, so the page boundary is a binary search —
        # paging a whole timeline stays O(T log T), not O(T^2 / limit)
        if max_id is None:
            stop = len(self._toots)
        else:
            stop = bisect_left(self._toots, max_id, key=_TOOT_ID)
        results: list[Toot] = []
        for index in range(stop - 1, -1, -1):
            toot = self._toots[index]
            if public_only and not toot.is_public:
                continue
            results.append(toot)
            if len(results) >= limit:
                break
        return results

    def all_toots(self, public_only: bool = False) -> list[Toot]:
        """Return every toot on the timeline in chronological order."""
        if not public_only:
            return list(self._toots)
        return [toot for toot in self._toots if toot.is_public]

    def count(self, public_only: bool = False) -> int:
        """Return the number of (optionally public) toots on the timeline."""
        if not public_only:
            return len(self._toots)
        return sum(1 for toot in self._toots if toot.is_public)


class ColumnarTimeline:
    """Paging over a timeline held as numpy columns instead of objects.

    The columnar scenario generator never builds :class:`Toot` objects,
    so its federated timelines are just an ascending ``toot_id`` array
    plus a public-visibility mask.  This class reproduces
    :meth:`Timeline.page` boundary behaviour — newest first, strictly
    below ``max_id``, public-only filtering — but returns *positions*
    into the backing columns; the scenario handle renders those rows
    into payloads on demand.
    """

    def __init__(self, toot_ids: np.ndarray, is_public: np.ndarray) -> None:
        self._ids = np.asarray(toot_ids, dtype=np.int64)
        if self._ids.size > 1 and not bool(np.all(self._ids[1:] > self._ids[:-1])):
            raise ValueError("columnar timelines require strictly ascending toot ids")
        self._public = np.asarray(is_public, dtype=bool)
        if self._public.shape != self._ids.shape:
            raise ValueError("toot_ids and is_public must align")
        # positions of public rows, ascending — a page is a reversed slice
        self._public_positions = np.flatnonzero(self._public)
        self._public_ids = self._ids[self._public_positions]

    def __len__(self) -> int:
        return int(self._ids.size)

    def newest_id(self) -> int | None:
        return int(self._ids[-1]) if self._ids.size else None

    def oldest_id(self) -> int | None:
        return int(self._ids[0]) if self._ids.size else None

    def count(self, public_only: bool = False) -> int:
        if not public_only:
            return int(self._ids.size)
        return int(self._public_positions.size)

    def page_positions(
        self,
        max_id: int | None = None,
        limit: int = DEFAULT_PAGE_SIZE,
        public_only: bool = True,
    ) -> np.ndarray:
        """Positions of up to ``limit`` rows older than ``max_id``, newest first."""
        if limit <= 0:
            return np.empty(0, dtype=np.int64)
        ids = self._public_ids if public_only else self._ids
        stop = ids.size if max_id is None else int(np.searchsorted(ids, max_id, side="left"))
        start = max(0, stop - limit)
        window = np.arange(stop - 1, start - 1, -1, dtype=np.int64)
        if public_only:
            return self._public_positions[window]
        return window

    def page_ids(
        self,
        max_id: int | None = None,
        limit: int = DEFAULT_PAGE_SIZE,
        public_only: bool = True,
    ) -> np.ndarray:
        """Toot ids of a page, newest first (mirrors :meth:`Timeline.page`)."""
        return self._ids[self.page_positions(max_id, limit, public_only)]
