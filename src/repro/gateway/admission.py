"""Admission control: bounded queue, per-client rate limits, drain.

The gateway admits a request before dispatching it to the batcher and
releases it when the response is written.  Three rejection reasons:

* ``queue_full`` — more than ``max_queue`` requests are in flight; the
  client should back off (HTTP 429).  Shedding at admission keeps the
  micro-batcher's queue bounded, so tail latency under overload stays
  flat instead of growing without bound.
* ``rate_limited`` — the client's token bucket is empty (HTTP 429).
  Buckets refill continuously at ``rate`` tokens/second up to
  ``burst``; clients are keyed by connection.
* ``draining`` — the gateway is shutting down (HTTP 503); in-flight
  requests finish, new ones are refused, and :meth:`wait_drained`
  resolves once the last one releases.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, Optional

#: Admission outcomes (``None`` from :meth:`AdmissionController.admit`
#: means admitted).
QUEUE_FULL = "queue_full"
RATE_LIMITED = "rate_limited"
DRAINING = "draining"


class TokenBucket:
    """Continuous-refill token bucket (``rate`` tokens/s, cap ``burst``)."""

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def try_take(self, amount: float = 1.0) -> bool:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False


class AdmissionController:
    """Gate requests into the gateway; shed instead of queueing forever.

    Parameters
    ----------
    max_queue:
        Maximum requests in flight (admitted but not yet released).
    rate / burst:
        Per-client token-bucket rate limit in requests/second with a
        ``burst`` allowance; ``rate=None`` disables rate limiting.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(self, max_queue: int = 256, rate: Optional[float] = None,
                 burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if (rate is not None and rate <= 0) or (burst is not None and burst <= 0):
            raise ValueError(f"rate and burst must be positive, got rate={rate}, "
                             f"burst={burst}")
        self.max_queue = int(max_queue)
        self.rate = rate
        self.burst = burst if burst is not None else (rate or 0) * 2
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight = 0
        self._service_inflight: Dict[str, int] = {}
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        self.admitted = 0
        self.shed: Dict[str, int] = {QUEUE_FULL: 0, RATE_LIMITED: 0,
                                     DRAINING: 0}

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    def admit(self, client: str,
              service: Optional[str] = None) -> Optional[str]:
        """Try to admit one request from ``client``.

        Returns ``None`` on success (pair with exactly one
        :meth:`release` carrying the same ``service``) or the rejection
        reason.  ``service`` labels the request with the routed service
        name so per-service in-flight counts stay queryable
        (:meth:`inflight_for` — the router's idle-eviction guard).
        """
        if self._draining:
            self.shed[DRAINING] += 1
            return DRAINING
        if self._inflight >= self.max_queue:
            self.shed[QUEUE_FULL] += 1
            return QUEUE_FULL
        if self.rate is not None:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self._clock)
                self._buckets[client] = bucket
            if not bucket.try_take():
                self.shed[RATE_LIMITED] += 1
                return RATE_LIMITED
        self._inflight += 1
        if service is not None:
            self._service_inflight[service] = \
                self._service_inflight.get(service, 0) + 1
        self.admitted += 1
        return None

    def release(self, service: Optional[str] = None) -> None:
        """Mark one admitted request as finished."""
        if self._inflight <= 0:
            raise RuntimeError("release() without a matching admit()")
        self._inflight -= 1
        if service is not None:
            count = self._service_inflight.get(service, 0) - 1
            if count > 0:
                self._service_inflight[service] = count
            else:
                self._service_inflight.pop(service, None)
        if self._draining and self._inflight == 0 and self._drained is not None:
            self._drained.set()

    def inflight_for(self, service: str) -> int:
        """In-flight requests currently labelled with ``service``."""
        return self._service_inflight.get(service, 0)

    def forget_client(self, client: str) -> None:
        """Drop a disconnected client's rate-limit state."""
        self._buckets.pop(client, None)

    # ------------------------------------------------------------------
    # Graceful drain
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new requests; in-flight ones are allowed to finish."""
        self._draining = True
        if self._drained is None:
            self._drained = asyncio.Event()
        if self._inflight == 0:
            self._drained.set()

    async def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted request has released.

        Returns ``True`` once drained, ``False`` on timeout (callers
        decide whether to abandon stragglers).
        """
        if not self._draining:
            raise RuntimeError("call begin_drain() first")
        assert self._drained is not None
        if timeout is None:
            await self._drained.wait()
            return True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def stats(self) -> dict:
        return {
            "inflight": self._inflight,
            "admitted": self.admitted,
            "draining": self._draining,
            "shed_queue_full": self.shed[QUEUE_FULL],
            "shed_rate_limited": self.shed[RATE_LIMITED],
            "shed_draining": self.shed[DRAINING],
            "clients": len(self._buckets),
            "service_inflight": dict(self._service_inflight),
        }
