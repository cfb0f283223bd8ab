"""Runtime lock-order sanitizer: the dynamic half of REP008.

REP008 proves statically that the two-lock modules never acquire locks
in inverted orders; this harness confirms it dynamically.  Inside
:func:`lock_order_sanitizer`, ``threading.Lock`` and ``threading.RLock``
hand out tracked proxies.  Every acquisition is recorded against the
set of locks the acquiring thread already holds, building a runtime
lock-order graph; two locks observed in both orders — on any threads,
at any time during the run — are reported as an inversion, the exact
precondition of an ABBA deadlock, without needing the unlucky schedule
that would actually hang.

The fleet-chaos suite runs entirely under this sanitizer (an autouse
fixture in ``tests/fleet/conftest.py``), so every SIGKILL/revival path
through the supervisor, the metrics registry, and the OTel push loop
re-validates the acquisition order on each run.

Locks are tracked by *instance* (a monotonic serial), not by creation
site, so two shard locks built by one comprehension never alias; the
creation site is kept only for human-readable reports.
"""

from __future__ import annotations

import _thread
# The resource tracker builds its module-level RLock on import and later
# calls methods the tracked proxy lacks; imported here, before any patch,
# it keeps a real lock for spawn-started workers.
import multiprocessing.resource_tracker  # noqa: F401
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["Inversion", "LockOrderError", "LockOrderSanitizer", "lock_order_sanitizer"]

_THIS_FILE = __file__


class LockOrderError(AssertionError):
    """Two locks were acquired in both orders during the sanitized run."""


@dataclass(frozen=True)
class Inversion:
    """One lock pair seen in both orders, with the observing call sites."""

    first: str  # creation site of the lock acquired first (forward order)
    second: str
    forward_site: str  # call site where first -> second was observed
    reverse_site: str

    def describe(self) -> str:
        return (
            f"lock({self.first}) and lock({self.second}) acquired in both "
            f"orders: forward at {self.forward_site}, reverse at {self.reverse_site}"
        )


def _caller_site() -> str:
    """First frame outside this module: where the user code acquired."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == _THIS_FILE:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class LockOrderSanitizer:
    """Records the runtime lock-order graph for tracked locks."""

    def __init__(self) -> None:
        # A raw, untracked leaf lock: held only while touching _edges,
        # never while acquiring a tracked lock, so it cannot deadlock
        # with (or pollute) the graph it guards.
        self._guard = _thread.allocate_lock()
        self._serial = 0
        self._sites: dict[int, str] = {}  # serial -> creation site
        # (held_serial, acquired_serial) -> call site of the acquisition
        self._edges: dict[tuple[int, int], str] = {}
        self._tls = threading.local()

    # -- factory side -------------------------------------------------

    def _new_serial(self, site: str) -> int:
        with self._guard:
            self._serial += 1
            self._sites[self._serial] = site
            return self._serial

    # -- proxy callbacks ----------------------------------------------

    def _held(self) -> dict[int, int]:  # serial -> recursion count
        held = getattr(self._tls, "held", None)
        if held is None:
            held = {}
            self._tls.held = held
        return held

    def note_acquired(self, serial: int, site: str) -> None:
        held = self._held()
        if serial in held:  # reentrant re-acquire: no new ordering fact
            held[serial] += 1
            return
        others = list(held)
        held[serial] = 1
        if others:
            with self._guard:
                for other in others:
                    self._edges.setdefault((other, serial), site)

    def note_released(self, serial: int, *, full: bool = False) -> None:
        held = self._held()
        count = held.get(serial)
        if count is None:
            return
        if full or count <= 1:
            del held[serial]
        else:
            held[serial] = count - 1

    # -- reporting ----------------------------------------------------

    def inversions(self) -> list[Inversion]:
        """Every lock pair observed in both acquisition orders."""
        with self._guard:
            edges = dict(self._edges)
            sites = dict(self._sites)
        found = []
        for (a, b), forward_site in sorted(edges.items()):
            if a < b and (b, a) in edges:
                found.append(
                    Inversion(
                        first=sites[a],
                        second=sites[b],
                        forward_site=forward_site,
                        reverse_site=edges[(b, a)],
                    )
                )
        return found

    def edge_count(self) -> int:
        with self._guard:
            return len(self._edges)

    def assert_no_inversions(self) -> None:
        found = self.inversions()
        if found:
            details = "\n  ".join(inv.describe() for inv in found)
            raise LockOrderError(
                f"{len(found)} lock-order inversion(s) observed at runtime:\n  {details}"
            )


class _TrackedLock:
    """Proxy over a plain ``threading.Lock`` reporting to the sanitizer."""

    __slots__ = ("_san", "_inner", "serial", "site")

    def __init__(self, san: LockOrderSanitizer, inner: Any, site: str) -> None:
        self._san = san
        self._inner = inner
        self.site = site
        self.serial = san._new_serial(site)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._san.note_acquired(self.serial, _caller_site())
        return got

    def release(self) -> None:
        self._inner.release()
        self._san.note_released(self.serial)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"<tracked {self._inner!r} from {self.site}>"


class _TrackedRLock:
    """Proxy over ``threading.RLock``, Condition-compatible.

    ``_is_owned`` / ``_release_save`` / ``_acquire_restore`` are defined
    here (and only here — a plain-Lock proxy must *not* grow them, or
    ``threading.Condition`` would take its RLock fast path against a
    non-reentrant inner lock) so Conditions built on tracked RLocks keep
    the held-set accurate across ``wait()``.
    """

    __slots__ = ("_san", "_inner", "serial", "site")

    def __init__(self, san: LockOrderSanitizer, inner: Any, site: str) -> None:
        self._san = san
        self._inner = inner
        self.site = site
        self.serial = san._new_serial(site)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._san.note_acquired(self.serial, _caller_site())
        return got

    def release(self) -> None:
        self._inner.release()
        self._san.note_released(self.serial)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def _is_owned(self) -> bool:
        return self._inner._is_owned()

    def _release_save(self) -> Any:
        state = self._inner._release_save()
        self._san.note_released(self.serial, full=True)
        return state

    def _acquire_restore(self, state: Any) -> None:
        self._inner._acquire_restore(state)
        self._san.note_acquired(self.serial, "<condition-reacquire>")

    def __repr__(self) -> str:
        return f"<tracked {self._inner!r} from {self.site}>"


@contextmanager
def lock_order_sanitizer() -> Iterator[LockOrderSanitizer]:
    """Patch ``threading.Lock``/``RLock`` to tracked proxies.

    Locks created *inside* the context are tracked; locks created before
    (stdlib module-level locks, already-built engines) are not.  Proxies
    keep working after the context exits, so threads that outlive the
    patch window stay correct — they just stop contributing new facts
    once the test asserts.
    """
    sanitizer = LockOrderSanitizer()
    orig_lock, orig_rlock = threading.Lock, threading.RLock

    def tracked_lock() -> _TrackedLock:
        return _TrackedLock(sanitizer, orig_lock(), _caller_site())

    def tracked_rlock() -> _TrackedRLock:
        return _TrackedRLock(sanitizer, orig_rlock(), _caller_site())

    threading.Lock = tracked_lock  # type: ignore[assignment]
    threading.RLock = tracked_rlock  # type: ignore[assignment]
    try:
        yield sanitizer
    finally:
        threading.Lock = orig_lock  # type: ignore[assignment]
        threading.RLock = orig_rlock  # type: ignore[assignment]
