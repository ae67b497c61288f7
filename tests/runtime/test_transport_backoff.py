"""The reliable transport's seeded retransmission backoff."""

from repro.runtime.transport import backoff_delay


class TestBackoffDelay:
    def test_deterministic(self):
        for attempt in (1, 2, 3):
            a = backoff_delay(0, 1, 4, attempt, 8.0)
            b = backoff_delay(0, 1, 4, attempt, 8.0)
            assert a == b

    def test_exponential_envelope_with_jitter(self):
        base = 8.0
        for attempt in (1, 2, 3, 4):
            nominal = base * 2 ** (attempt - 1)
            delay = backoff_delay(2, 3, 0, attempt, base)
            assert 0.5 * nominal <= delay < nominal

    def test_varies_by_key_and_attempt(self):
        delays = {
            backoff_delay(src, dst, seq, attempt, 8.0)
            for src, dst, seq in ((0, 1, 0), (1, 0, 0), (0, 1, 1))
            for attempt in (1, 2)
        }
        assert len(delays) == 6  # jitter de-synchronises frames

    def test_independent_of_hash_seed(self):
        # random.Random(str) seeds via SHA-512, so the schedule cannot
        # depend on PYTHONHASHSEED; the base only scales it.
        assert backoff_delay(5, 6, 7, 1, 8.0) == backoff_delay(5, 6, 7, 1, 8.0)
        assert backoff_delay(5, 6, 7, 1, 16.0) == 2.0 * backoff_delay(5, 6, 7, 1, 8.0)

    def test_values_pinned(self):
        # Computed with the schedule the transport used before it owned
        # the formula; the lossy goldens depend on these exact bits.
        assert backoff_delay(0, 1, 0, 1, 8.0) == 7.277261227234568
        assert backoff_delay(3, 7, 12, 2, 14.0) == 24.742053558894234
        assert backoff_delay(6, 2, 41, 5, 30.0) == 439.2311538436509
