"""Capped exponential backoff with seeded jitter.

A :class:`RetryPolicy` is pure arithmetic: given the number of failures
so far and an RNG (derived from the experiment seed via
:func:`repro.util.randomness.derive_rng`), it yields the next delay.
Because the jitter draws come from a seeded stream, a retried exchange
replays bit-identically from the seed — the property every fault-
injection test in ``tests/faults/`` leans on.

The policy never sleeps or schedules by itself: its caller, a
:class:`~repro.net.requests.PendingRequests` table, arms each delay as a
timer on the event kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import RetryError


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff plus jitter.

    ``max_attempts`` counts *total* tries, so ``max_attempts=1`` means
    no retries at all.  The delay before attempt ``n+1`` (after ``n``
    failures) is ``min(max_delay, base_delay * multiplier**(n-1))``,
    stretched by a uniform jitter of up to ``±jitter`` of itself.
    """

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 8.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RetryError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise RetryError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise RetryError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise RetryError(
                f"max_delay {self.max_delay} < base_delay {self.base_delay}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise RetryError(f"jitter must be in [0, 1), got {self.jitter}")

    def should_retry(self, failures: int) -> bool:
        """True while another attempt is allowed after ``failures`` failures."""
        return failures < self.max_attempts

    def delay(self, failures: int, rng: random.Random | None = None) -> float:
        """Backoff before the attempt following failure number ``failures``.

        ``failures`` is 1-based (the delay after the first failure is
        ``base_delay``-ish).  Without an RNG the delay is the exact cap
        — deterministic but synchronized; pass a seeded RNG to spread
        retries while staying replayable.
        """
        if failures < 1:
            raise RetryError(f"delay() needs failures >= 1, got {failures}")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (failures - 1))
        if rng is None or self.jitter == 0.0:
            return raw
        spread = self.jitter * (2.0 * rng.random() - 1.0)
        return raw * (1.0 + spread)


#: Defaults tuned to the simulator's LIGLO timeout (5 s): four attempts
#: spanning ~3.5 s of backoff on top of the per-attempt timeouts.
DEFAULT_RETRY_POLICY = RetryPolicy()

