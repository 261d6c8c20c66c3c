"""Tests for the simulated MPI layer: semantics, metering, failure modes."""

import numpy as np
import pytest

from repro.common.errors import CommunicatorError
from repro.mpi import Meter, payload_bytes, run_spmd


def spmd(nranks, fn, **kw):
    return run_spmd(nranks, fn, **kw)


class TestPointToPoint:
    def test_ring(self):
        def fn(comm):
            nxt = (comm.rank + 1) % comm.size
            prv = (comm.rank - 1) % comm.size
            comm.send(comm.rank, nxt, tag=1)
            return comm.recv(prv, tag=1)

        assert spmd(4, fn) == [3, 0, 1, 2]

    def test_numpy_payload(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(np.arange(10.0), 1)
                return None
            if comm.rank == 1:
                return comm.recv(0)
            return None

        out = spmd(3, fn)
        assert np.array_equal(out[1], np.arange(10.0))

    def test_tag_separation(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send("a", 1, tag=1)
                comm.send("b", 1, tag=2)
            elif comm.rank == 1:
                b = comm.recv(0, tag=2)
                a = comm.recv(0, tag=1)
                return (a, b)
            return None

        assert spmd(2, fn)[1] == ("a", "b")

    def test_fifo_per_channel(self):
        def fn(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, 1)
            elif comm.rank == 1:
                return [comm.recv(0) for _ in range(5)]
            return None

        assert spmd(2, fn)[1] == list(range(5))

    def test_invalid_dest(self):
        def fn(comm):
            comm.send(1, 5)

        with pytest.raises(CommunicatorError):
            spmd(2, fn)


class TestCollectives:
    def test_bcast(self):
        def fn(comm):
            return comm.bcast("payload" if comm.rank == 2 else None, root=2)

        assert spmd(4, fn) == ["payload"] * 4

    def test_gather_scatter_roundtrip(self):
        def fn(comm):
            data = comm.rank ** 2
            g = comm.gather(data, root=0)
            if comm.rank == 0:
                back = comm.scatter([x + 1 for x in g], root=0)
            else:
                back = comm.scatter(None, root=0)
            return back

        assert spmd(4, fn) == [r * r + 1 for r in range(4)]

    def test_allreduce_ops(self):
        def fn(comm):
            return (comm.allreduce(comm.rank),
                    comm.allreduce(comm.rank, op="max"),
                    comm.allreduce(comm.rank, op="min"))

        out = spmd(5, fn)
        assert out[0] == (10, 4, 0)

    def test_allreduce_arrays(self):
        def fn(comm):
            return comm.allreduce(np.full(3, float(comm.rank)), op="max")

        out = spmd(3, fn)
        assert np.array_equal(out[0], np.full(3, 2.0))

    def test_allreduce_callable_op(self):
        def fn(comm):
            return comm.allreduce(comm.rank + 1, op=lambda a, b: a * b)

        assert spmd(4, fn)[0] == 24

    def test_unknown_op(self):
        def fn(comm):
            comm.allreduce(1, op="median")

        with pytest.raises(CommunicatorError):
            spmd(2, fn)

    def test_alltoall(self):
        def fn(comm):
            return comm.alltoall([(comm.rank, j) for j in range(comm.size)])

        out = spmd(3, fn)
        assert out[1] == [(0, 1), (1, 1), (2, 1)]

    def test_allgather(self):
        def fn(comm):
            return comm.allgather(comm.rank * 10)

        assert spmd(3, fn) == [[0, 10, 20]] * 3

    def test_reduce_root_only(self):
        def fn(comm):
            return comm.reduce(1, root=1)

        assert spmd(3, fn) == [None, 3, None]

    def test_scatter_bad_length(self):
        def fn(comm):
            comm.scatter([1] if comm.rank == 0 else None, root=0)

        with pytest.raises(CommunicatorError):
            spmd(2, fn)


class TestSplit:
    def test_split_even_odd(self):
        def fn(comm):
            sub = comm.split(comm.rank % 2)
            return (sub.size, sub.rank, sub.allreduce(comm.rank))

        out = spmd(6, fn)
        assert out[0] == (3, 0, 0 + 2 + 4)
        assert out[1] == (3, 0, 1 + 3 + 5)
        assert out[2] == (3, 1, 6)

    def test_split_null(self):
        def fn(comm):
            sub = comm.split(0 if comm.rank == 0 else None)
            return sub is None

        assert spmd(3, fn) == [False, True, True]

    def test_split_key_ordering(self):
        def fn(comm):
            sub = comm.split(0, key=-comm.rank)   # reversed ranks
            return sub.rank

        assert spmd(3, fn) == [2, 1, 0]

    def test_nested_split(self):
        def fn(comm):
            sub = comm.split(comm.rank // 2)
            subsub = sub.split(0)
            return subsub.allreduce(1)

        assert spmd(4, fn) == [2, 2, 2, 2]


class TestNeighborhood:
    def test_chain_exchange(self):
        def fn(comm):
            nbrs = [r for r in (comm.rank - 1, comm.rank + 1)
                    if 0 <= r < comm.size]
            g = comm.dist_graph_create_adjacent(nbrs)
            return g.neighbor_alltoall([comm.rank * 100] * len(nbrs))

        out = spmd(4, fn)
        assert out[0] == [100]
        assert out[1] == [0, 200]

    def test_wrong_count(self):
        def fn(comm):
            g = comm.dist_graph_create_adjacent([])
            g.ineighbor_alltoall([1])

        with pytest.raises(CommunicatorError):
            spmd(2, fn)


class TestErrorsAndMeter:
    def test_exception_propagates(self):
        def fn(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 died")
            comm.barrier()

        with pytest.raises(ValueError, match="rank 1 died"):
            spmd(3, fn)

    def test_meter_counts_messages(self):
        meter = Meter(2)

        def fn(comm):
            if comm.rank == 0:
                comm.send(np.zeros(100), 1)
            else:
                comm.recv(0)

        spmd(2, fn, meter=meter)
        assert meter.total_messages() == 1
        assert meter.total_bytes() == 800

    def test_meter_counts_collectives(self):
        meter = Meter(3)

        def fn(comm):
            comm.allreduce(1.0)
            comm.barrier()

        spmd(3, fn, meter=meter)
        assert meter.total_collectives("allreduce") == 3
        assert meter.total_collectives("barrier") == 3
        assert meter.max_global_syncs() == 2

    def test_split_collectives_not_global(self):
        meter = Meter(4)

        def fn(comm):
            sub = comm.split(comm.rank % 2)
            sub.allreduce(1)

        spmd(4, fn, meter=meter)
        # the split itself synchronises globally; the sub allreduce doesn't
        assert meter.max_global_syncs() == 1

    def test_payload_bytes(self):
        assert payload_bytes(np.zeros(10)) == 80
        assert payload_bytes(3.14) == 8
        assert payload_bytes(None) == 0
        assert payload_bytes([np.zeros(2), 1.0]) == 24
        assert payload_bytes((np.zeros(4),)) == 32

    def test_single_rank(self):
        def fn(comm):
            assert comm.allreduce(5) == 5
            assert comm.bcast(7) == 7
            return comm.rank

        assert spmd(1, fn) == [0]

    def test_invalid_nranks(self):
        with pytest.raises(CommunicatorError):
            run_spmd(0, lambda c: None)
