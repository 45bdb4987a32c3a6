"""Send-rate limiting: a token bucket.

The bucket fills with send credits (bytes) at `fill_rate`; sends deduct
credits, and a sender with insufficient credits learns exactly how long
to sleep.  How a sender adapts the rate is its own rule (see rsp.py).
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass
class TokenBucket:
    capacity: float          # bytes
    fill_rate: float         # bytes/second
    credits: float = -1.0
    last_fill: float = 0.0

    def __post_init__(self):
        if self.capacity <= 0 or self.fill_rate <= 0:
            raise ValueError("capacity and fill rate must be positive")
        if self.credits < 0:
            self.credits = self.capacity

    def _refill(self, now: float) -> None:
        if now > self.last_fill:
            self.credits = min(self.capacity, self.credits + (now - self.last_fill) * self.fill_rate)
            self.last_fill = now

    def acquire(self, n: float, now: float) -> float:
        """Deduct n credits and return 0, or return the exact wait time.

        Nothing is deducted while waiting; call again after the wait.  A
        tiny tolerance absorbs float rounding in refill arithmetic so a
        caller sleeping the returned wait is guaranteed to succeed next.
        """
        if n > self.capacity:
            raise ValueError(f"request of {n} bytes exceeds bucket capacity {self.capacity}")
        self._refill(now)
        if self.credits >= n - 1e-9:
            self.credits = max(0.0, self.credits - n)
            return 0.0
        return (n - self.credits) / self.fill_rate

    def set_rate(self, fill_rate: float, now: float) -> None:
        self._refill(now)
        self.fill_rate = fill_rate
