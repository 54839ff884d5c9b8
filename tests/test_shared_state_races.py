"""Regression tests for the shared-state races the multiprocess backend
exposed.

Before the fixes, a structure shared across rank threads did unlocked
check-then-act:

- ``SignatureTable`` (symmetric-heap symmetry registry): two PEs allocating
  the same ``sym_id`` concurrently could both observe "no signature yet" and
  skip the cross-PE shape check, letting an asymmetric allocation through
  silently; stale signatures also outlived ``free``, poisoning id reuse.
- ``ShmemBackend`` atomics: an AMO delivery read the old value and wrote the
  new one outside the backend lock, so two delivery threads (a procs rank
  has one reader thread per peer) could both read the same old value and
  one update was lost — stalling UTS's lock steal and termination counter.

Each test here drives the racy interleaving directly with barrier-
synchronized threads and fails on the pre-fix code with high probability
per iteration (and the loops run enough iterations to make a miss
vanishingly unlikely).
"""

import sys
import threading
import types

import numpy as np

from repro.shmem.backend import ShmemBackend
from repro.shmem.heap import SignatureTable, SymmetricHeap
from repro.util.errors import ShmemError

ITERS = 40


# ----------------------------------------------------------------------
# SignatureTable / SymmetricHeap
# ----------------------------------------------------------------------
class TestSignatureRace:
    def test_concurrent_conflicting_register_exactly_one_wins(self):
        """Pre-fix: both racers could pass the symmetry check (0 errors)."""
        for _ in range(ITERS):
            table = SignatureTable()
            barrier = threading.Barrier(2)
            errors = []

            def racer(rank, sig):
                barrier.wait()
                try:
                    table.register(0, sig, rank)
                except ShmemError as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=racer, args=(0, ((8,), "int64"))),
                threading.Thread(target=racer, args=(1, ((16,), "int64"))),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(errors) == 1, \
                "conflicting concurrent allocations both passed the check"
            assert "asymmetric allocation" in str(errors[0])

    def test_concurrent_matching_register_both_pass(self):
        for _ in range(ITERS):
            table = SignatureTable()
            barrier = threading.Barrier(2)
            errors = []

            def racer(rank):
                barrier.wait()
                try:
                    table.register(0, ((8,), "int64"), rank)
                except ShmemError as exc:  # pragma: no cover - the bug
                    errors.append(exc)

            threads = [threading.Thread(target=racer, args=(r,))
                       for r in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []

    def test_free_retires_signature_for_id_reuse(self):
        """Pre-fix: the signature outlived ``free``, so reallocating the
        same sym_id with a new shape false-failed (or false-passed)."""
        table = SignatureTable()
        heaps = [SymmetricHeap(rank, table) for rank in range(2)]
        arrs = [h.allocate((8,), dtype=np.int64) for h in heaps]
        assert 0 in table
        heaps[0].free(arrs[0])
        assert 0 in table, "signature dropped while a PE still holds it"
        heaps[1].free(arrs[1])
        assert 0 not in table
        # The id is reusable with a different shape now.
        for h in heaps:
            h._next_id = 0
        out = [h.allocate((32,), dtype=np.float64) for h in heaps]
        assert all(a.shape == (32,) for a in out)

    def test_heap_level_asymmetric_allocate_detected_under_race(self):
        for _ in range(ITERS):
            table = SignatureTable()
            heaps = [SymmetricHeap(rank, table) for rank in range(2)]
            shapes = [(8,), (16,)]
            barrier = threading.Barrier(2)
            errors = []

            def racer(rank):
                barrier.wait()
                try:
                    heaps[rank].allocate(shapes[rank], dtype=np.int64)
                except ShmemError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=racer, args=(r,))
                       for r in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(errors) == 1


# ----------------------------------------------------------------------
# ShmemBackend atomics
# ----------------------------------------------------------------------
class _Mux:
    """The part of a FabricMux a backend touches to apply deliveries, with
    the real lock a threaded or procs executor hands out."""

    nranks = 2
    stats = None
    fabric = types.SimpleNamespace(
        executor=types.SimpleNamespace(lock_class=threading.Lock))

    def register_channel(self, name, handler):
        pass


class TestAtomicDelivery:
    THREADS = 4
    ADDS = 5000

    def _concurrent_adds(self):
        table, peers = SignatureTable(), {}
        heaps = [SymmetricHeap(rank, table) for rank in range(2)]
        words = [h.allocate((1,), dtype=np.int64) for h in heaps]
        target = ShmemBackend(_Mux(), 0, heaps[0], peers)
        ShmemBackend(_Mux(), 1, heaps[1], peers)   # the origin, acked directly
        add = ("amo", "add", words[0].sym_id, 0, 1, None, 1, None)
        barrier = threading.Barrier(self.THREADS)

        def deliver():
            barrier.wait()
            for _ in range(self.ADDS):
                target._on_delivery(1, add, 0.0)

        threads = [threading.Thread(target=deliver)
                   for _ in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        return int(heaps[0].flat(words[0].sym_id)[0])

    def test_concurrent_adds_to_one_word_lose_no_update(self):
        """Pre-fix: 10 of 20 single runs at 2000 adds a thread lost an
        add, and this test failed 6 times in 6."""
        for _ in range(5):
            assert self._concurrent_adds() == self.THREADS * self.ADDS
