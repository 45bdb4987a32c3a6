import pytest

from eqsim.net import TokenBucket


def test_acquire_with_enough_credits_is_instant():
    b = TokenBucket(capacity=1000, fill_rate=100, credits=500, last_fill=0.0)
    assert b.acquire(500, now=0.0) == 0.0
    assert b.credits == pytest.approx(0.0, abs=1e-6)


def test_empty_bucket_wait_is_exact():
    b = TokenBucket(capacity=2e6, fill_rate=1e6, credits=0.0, last_fill=0.0)
    assert b.acquire(1e6, now=0.0) == pytest.approx(1.0)
    assert b.acquire(1e6, now=1.0) == 0.0


def test_oversized_request_rejected():
    b = TokenBucket(capacity=100, fill_rate=10)
    with pytest.raises(ValueError):
        b.acquire(101, now=0.0)


def test_credits_never_exceed_capacity():
    b = TokenBucket(capacity=100, fill_rate=1000, credits=1, last_fill=0.0)
    b.acquire(1, now=100.0)
    assert 0 <= b.credits <= 100


def test_long_run_throughput_matches_fill_rate():
    # sending at twice the fill rate: observed throughput == fill rate +-5%
    b = TokenBucket(capacity=10_000, fill_rate=1e6)
    clock = 0.0
    sent = 0
    n = 5000.0
    while sent < 2_000_000:
        wait = b.acquire(n, clock)
        if wait > 0:
            clock += wait
            continue
        sent += n
        clock += n / 2e6  # attempt rate 2 MB/s
    assert sent / clock == pytest.approx(1e6, rel=0.05)
