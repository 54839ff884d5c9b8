"""Network cost model, fabric timing/ordering/ownership/failure atomicity,
the protocol mux, and the surface every fabric class must present."""

import pytest

from repro.exec.shards import ShardPlan
from repro.exec.sim import SimExecutor
from repro.net.costmodel import NETWORKS, NetworkModel, network
from repro.net.fabric import SimFabric
from repro.net.mux import FabricMux
from repro.net.procfabric import ProcFabric
from repro.util.errors import CommError, ConfigError


def make_fabric(nranks=4, ranks_per_node=1, net=None):
    ex = SimExecutor()
    fab = SimFabric(ex, nranks, net or NetworkModel(), ranks_per_node=ranks_per_node)
    return ex, fab


class TestNetworkModel:
    def test_known_networks(self):
        assert {"aries", "gemini", "generic"} <= set(NETWORKS)
        assert network("gemini").bandwidth < network("aries").bandwidth

    def test_unknown_network_raises(self):
        with pytest.raises(ConfigError):
            network("infiniband7")

    def test_negative_parameter_rejected(self):
        with pytest.raises(ConfigError):
            NetworkModel(latency=-1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            NetworkModel(bandwidth=0.0)

    def test_serialization_time_scales_with_bytes(self):
        net = NetworkModel(bandwidth=1e9, inj_overhead=1e-6)
        assert net.serialization_time(1_000_000) == pytest.approx(1e-6 + 1e-3)

    def test_intra_node_cheaper_than_inter(self):
        net = NetworkModel()
        n = 1 << 20
        inter = 2 * net.serialization_time(n) + net.latency
        assert net.intra_node_time(n) < inter


class TestFabricDelivery:
    def test_basic_delivery_time(self):
        net = NetworkModel(latency=1e-6, bandwidth=1e9, inj_overhead=1e-6)
        ex, fab = make_fabric(net=net)
        seen = []
        fab.register_sink(1, lambda src, p, t: seen.append((src, p, t)))
        fab.transmit(0, 1, 1000, "hello")
        ex.drain()
        assert len(seen) == 1
        src, payload, t = seen[0]
        assert (src, payload) == (0, "hello")
        # tx ser + latency + rx ser
        assert t == pytest.approx(2 * (1e-6 + 1e-6) + 1e-6)

    def test_pairwise_fifo_order(self):
        ex, fab = make_fabric()
        seen = []
        fab.register_sink(1, lambda src, p, t: seen.append(p))
        for i in range(10):
            # shrinking sizes would tempt later messages to overtake
            fab.transmit(0, 1, 10_000 - i * 1000, i)
        ex.drain()
        assert seen == list(range(10))

    def test_intra_node_skips_nic(self):
        net = NetworkModel(latency=1e-3, intra_latency=1e-7)
        ex, fab = make_fabric(nranks=4, ranks_per_node=2, net=net)
        times = {}
        fab.register_sink(1, lambda s, p, t: times.__setitem__("intra", t))
        fab.register_sink(2, lambda s, p, t: times.__setitem__("inter", t))
        fab.transmit(0, 1, 100, "x")  # same node
        fab.transmit(0, 2, 100, "y")  # crosses nodes
        ex.drain()
        assert times["intra"] < 1e-5 < times["inter"]

    def test_self_send_immediate(self):
        ex, fab = make_fabric()
        seen = []
        fab.register_sink(0, lambda s, p, t: seen.append(t))
        fab.transmit(0, 0, 1 << 20, "self")
        ex.drain()
        assert seen == [0.0]

    def test_nic_incast_serializes(self):
        """Many senders to one node: deliveries spread by rx serialization."""
        net = NetworkModel(latency=0.0, bandwidth=1e9, inj_overhead=1e-6)
        ex, fab = make_fabric(nranks=9, net=net)
        times = []
        fab.register_sink(0, lambda s, p, t: times.append(t))
        for src in range(1, 9):
            fab.transmit(src, 0, 0, src)
        ex.drain()
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(1e-6) for g in gaps)

    def test_injection_callback_before_delivery(self):
        ex, fab = make_fabric()
        events = []
        fab.register_sink(1, lambda s, p, t: events.append(("deliver", t)))
        fab.transmit(0, 1, 1 << 16, "m",
                     on_injected=lambda t: events.append(("inject", t)))
        ex.drain()
        assert events[0][0] == "inject" and events[1][0] == "deliver"
        assert events[0][1] < events[1][1]

    def test_message_and_byte_counters(self):
        ex, fab = make_fabric()
        fab.register_sink(1, lambda s, p, t: None)
        fab.transmit(0, 1, 500, "a")
        fab.transmit(0, 1, 700, "b")
        assert fab.messages_sent == 2
        assert fab.bytes_sent == 1200

    def test_missing_sink_raises(self):
        ex, fab = make_fabric()
        with pytest.raises(CommError, match="no registered message sink"):
            fab.transmit(0, 2, 10, "x")

    def test_duplicate_sink_rejected(self):
        ex, fab = make_fabric()
        fab.register_sink(0, lambda s, p, t: None)
        with pytest.raises(CommError, match="already"):
            fab.register_sink(0, lambda s, p, t: None)

    def test_rank_bounds_checked(self):
        ex, fab = make_fabric()
        with pytest.raises(CommError, match="out of range"):
            fab.transmit(0, 99, 10, "x")
        with pytest.raises(CommError, match="negative"):
            fab.register_sink(1, lambda s, p, t: None) or \
                fab.transmit(0, 1, -5, "x")

    def test_node_mapping(self):
        ex, fab = make_fabric(nranks=8, ranks_per_node=4)
        assert fab.nnodes == 2
        assert fab.node_of(3) == 0 and fab.node_of(4) == 1


class TestMux:
    def test_channels_dispatch_independently(self):
        ex, fab = make_fabric(nranks=2)
        got = {"a": [], "b": []}
        m0 = FabricMux(fab, 0)
        m1 = FabricMux(fab, 1)
        m1.register_channel("a", lambda s, p, t: got["a"].append(p))
        m1.register_channel("b", lambda s, p, t: got["b"].append(p))
        m0.register_channel("a", lambda s, p, t: None)
        m0.register_channel("b", lambda s, p, t: None)
        m0.transmit(1, "a", "to-a", 10)
        m0.transmit(1, "b", "to-b", 10)
        ex.drain()
        assert got == {"a": ["to-a"], "b": ["to-b"]}

    def test_unknown_channel_send_rejected(self):
        ex, fab = make_fabric(nranks=2)
        m0 = FabricMux(fab, 0)
        with pytest.raises(CommError, match="unregistered"):
            m0.transmit(1, "ghost", "x", 1)

    def test_duplicate_channel_rejected(self):
        ex, fab = make_fabric(nranks=2)
        m0 = FabricMux(fab, 0)
        m0.register_channel("a", lambda s, p, t: None)
        with pytest.raises(CommError, match="already"):
            m0.register_channel("a", lambda s, p, t: None)


class TestFabricFaultErrorPaths:
    """ISSUE 'resilience' satellite (d): fabric/mux error paths."""

    def test_oversized_payload_rejected(self):
        ex = SimExecutor()
        fab = SimFabric(ex, 2, NetworkModel(), max_message_bytes=512)
        fab.register_sink(1, lambda s, p, t: None)
        fab.transmit(0, 1, 512, "at-the-limit")
        with pytest.raises(CommError, match="exceeds fabric limit"):
            fab.transmit(0, 1, 513, "over")

    def test_no_limit_by_default(self):
        ex, fab = make_fabric()
        fab.register_sink(1, lambda s, p, t: None)
        fab.transmit(0, 1, 1 << 30, "huge")  # unlimited unless configured

    def test_invalid_limit_rejected(self):
        ex = SimExecutor()
        with pytest.raises(ConfigError, match="max_message_bytes"):
            SimFabric(ex, 2, NetworkModel(), max_message_bytes=0)

    def test_receive_on_unregistered_channel_raises(self):
        ex, fab = make_fabric(nranks=2)
        m0 = FabricMux(fab, 0)
        m1 = FabricMux(fab, 1)
        m0.register_channel("only-on-sender", lambda s, p, t: None)
        m0.transmit(1, "only-on-sender", "x", 8)
        with pytest.raises(CommError, match="unregistered channel"):
            ex.drain()

    def test_retry_policy_requires_registered_channel(self):
        ex, fab = make_fabric(nranks=2)
        m0 = FabricMux(fab, 0)
        with pytest.raises(CommError, match="unregistered"):
            m0.set_retry_policy("nope", object())

    def test_fault_hook_exception_propagates_to_sender(self):
        ex, fab = make_fabric(nranks=2)
        fab.register_sink(1, lambda s, p, t: None)

        def broken_hook(src, dst, nbytes, payload):
            raise RuntimeError("hook bug")

        fab.fault_hook = broken_hook
        with pytest.raises(RuntimeError, match="hook bug"):
            fab.transmit(0, 1, 8, "x")


# ----------------------------------------------------------------------
# failure atomicity: a refused send leaves the fabric as it found it
# ----------------------------------------------------------------------
def _state(ex, fab):
    return (list(fab._tx_avail), list(fab._rx_avail), dict(fab._pair_last),
            fab.messages_sent, fab.bytes_sent, ex.pending_events(),
            fab.cross_shard_msgs, fab._send_seq,
            {k: list(v) for k, v in fab._outboxes.items()})


def _sliced(shard_id=0, nshards=2, **kw):
    """Shard ``shard_id``'s fabric of a 4-node, 1-rank-per-node plan, with
    a recording sink on every rank it owns."""
    ex = SimExecutor()
    plan = ShardPlan.build(4, nshards, 1)
    fab = SimFabric(ex, 4, NetworkModel(), plan=plan, shard_id=shard_id, **kw)
    seen = []
    for rank in range(fab.lo, fab.hi):
        fab.register_sink(
            rank, lambda s, p, t, rank=rank: seen.append((rank, s, p, t)))
    return ex, fab, seen


class TestFailureAtomicity:
    """Fails at 5e84199, where ``transmit`` counted and occupied both NICs
    before it looked for the sink and a wave priced every message up to the
    bad one."""

    def _fabric(self):
        ex = SimExecutor()
        fab = SimFabric(ex, 4, NetworkModel(), max_message_bytes=4096)
        seen = []
        for rank in (0, 1):  # ranks 2 and 3 never get a sink
            fab.register_sink(rank, lambda s, p, t: seen.append(p))
        fab.transmit(0, 1, 64, "warm")  # non-trivial state to preserve
        return ex, fab, seen

    @pytest.mark.parametrize("call, error", [
        (lambda f: f.transmit(0, 9, 1024, "x"), "out of range"),
        (lambda f: f.transmit(9, 1, 1024, "x"), "out of range"),
        (lambda f: f.transmit(0, 2, 1024, "x"), "no registered message sink"),
        (lambda f: f.transmit(0, 1, -1, "x"), "negative message size"),
        (lambda f: f.transmit(0, 1, 4097, "x"), "exceeds fabric limit"),
        (lambda f: f.transmit_wave(0, [1, 9], 1024, ["a", "b"]),
         "out of range"),
        (lambda f: f.transmit_wave(0, [1, 2], 1024, ["a", "b"]),
         "no registered message sink"),
        (lambda f: f.transmit_wave(0, [1, 1], -1, ["a", "b"]),
         "negative message size"),
        (lambda f: f.transmit_wave(0, [1, 1], 4097, ["a", "b"]),
         "exceeds fabric limit"),
        (lambda f: f.transmit_wave(0, [1, 1], 1024, ["a"]),
         "length mismatch"),
        (lambda f: f.transmit_wave(0, [1, 1], 1024, ["a", "b"], ts=[0.0]),
         "length mismatch"),
    ])
    def test_refused_send_changes_nothing(self, call, error):
        ex, fab, seen = self._fabric()
        before = _state(ex, fab)
        with pytest.raises(CommError, match=error):
            call(fab)
        assert _state(ex, fab) == before
        ex.drain()
        assert seen == ["warm"]  # "a" is not delivered: a wave fails whole

    def test_wave_refused_under_a_fault_hook_changes_nothing(self):
        ex, fab, _ = self._fabric()
        calls = []
        fab.fault_hook = lambda *a: calls.append(a)
        before = _state(ex, fab)
        with pytest.raises(CommError, match="does not support fault"):
            fab.transmit_wave(0, [1, 1], 1024, ["a", "b"])
        assert _state(ex, fab) == before and calls == []

    @pytest.mark.parametrize("hook, call, error", [
        (False, lambda f: f.transmit(2, 0, 8, "x"),
         "cannot send on behalf of"),
        (False, lambda f: f.transmit_wave(2, [0, 1], 8, ["a", "b"]),
         "cannot send on behalf of"),
        (True, lambda f: f.transmit(0, 2, 8, "x"),
         "not supported across shards"),
        (False, lambda f: f.transmit_wave(0, [1, 2, 9], 8, list("abc")),
         "out of range"),
    ])
    def test_sliced_refusals_change_nothing(self, hook, call, error):
        ex, fab, _ = _sliced()
        fab.transmit(0, 1, 64, "warm")
        fab.transmit(0, 2, 64, "parked")
        calls = []
        if hook:
            fab.fault_hook = lambda *a: calls.append(a)
        before = _state(ex, fab)
        with pytest.raises(CommError, match=error):
            call(fab)
        assert _state(ex, fab) == before and calls == []


# ----------------------------------------------------------------------
# ownership: two slices of one plan, no child processes
# ----------------------------------------------------------------------
class TestOwnership:
    def test_cross_slice_message_lands_where_one_fabric_puts_it(self):
        ex, whole = make_fabric()
        want = []
        whole.register_sink(3, lambda s, p, t: want.append((3, s, p, t)))
        inject = whole.transmit(0, 3, 1000, "over")
        ex.drain()

        ex0, fab0, _ = _sliced(0)
        ex1, fab1, seen1 = _sliced(1)
        assert fab0.transmit(0, 3, 1000, "over") == inject
        assert (fab0.messages_sent, fab0.cross_shard_msgs,
                fab0.cross_shard_bytes) == (1, 1, 1000)
        assert ex0.pending_events() == 0      # parked, not posted
        outboxes = fab0.take_outboxes()
        assert list(outboxes) == [1] and fab0.take_outboxes() == {}
        fab1.inject_remote(outboxes[1])
        ex1.drain()
        assert seen1 == want                  # the same float, not approx
        assert fab1.messages_sent == 0        # counted once, by the sender

    def test_mixed_wave_parks_only_what_it_does_not_own(self):
        ex, fab, seen = _sliced(0)
        injects = fab.transmit_wave(0, [0, 1, 2, 3], 48, list("abcd"))
        assert len(injects) == 4 and fab.messages_sent == 4
        assert [(m[3], m[5]) for m in fab.take_outboxes()[1]] == \
            [(2, "c"), (3, "d")]
        ex.drain()
        assert [(rank, p) for rank, _s, p, _t in seen] == [(0, "a"), (1, "b")]

    @pytest.mark.parametrize("call", [
        lambda f: f.register_sink(2, lambda s, p, t: None),
        lambda f: f.transmit(3, 0, 8, "x"),
    ])
    def test_unowned_rank_is_refused_by_name(self, call):
        _, fab, _ = _sliced(0)
        with pytest.raises(CommError, match=r"shard 0 owns ranks \[0, 2\)"):
            call(fab)

    def test_fault_hook_refuses_an_unowned_destination(self):
        _, fab, _ = _sliced(0)
        fab.fault_hook = lambda *a: None
        fab.transmit(0, 1, 8, "owned is fine")
        with pytest.raises(CommError, match="not supported across shards"):
            fab.transmit(0, 2, 8, "x")

    def test_misrouted_remote_message_is_refused(self):
        _, fab0, _ = _sliced(0)
        fab0.transmit(0, 3, 8, "for shard 1")
        with pytest.raises(CommError, match="cannot deliver to rank 3"):
            fab0.inject_remote(fab0.take_outboxes()[1])

    def test_one_shard_owns_everything_and_never_parks(self):
        _, fab, _ = _sliced(0, nshards=1)
        whole = make_fabric()[1]
        assert (fab.lo, fab.hi) == (whole.lo, whole.hi) == (0, 4)
        fab.transmit_wave(0, [0, 1, 2, 3], 48, list("abcd"))
        fab.transmit(1, 3, 48, "e")
        assert fab.take_outboxes() == {} and fab.cross_shard_msgs == 0


# ----------------------------------------------------------------------
# the surface FabricMux and the backends use, on every fabric
# ----------------------------------------------------------------------
class _Clock:
    """The one thing ProcFabric asks of its executor."""

    def now(self):
        return 0.0


@pytest.fixture(params=["whole", "sliced", "procs"])
def any_fabric(request, tmp_path):
    """(fabric, an owned rank, a rank it does not own) with nranks == 4."""
    if request.param == "whole":
        yield make_fabric()[1], 0, 4
    elif request.param == "sliced":
        ex = SimExecutor()
        yield SimFabric(ex, 4, NetworkModel(),
                        plan=ShardPlan.build(4, 2, 1), shard_id=0), 0, 3
    else:
        fab = ProcFabric(_Clock(), 4, 0, str(tmp_path))
        fab.start()
        yield fab, 0, 3
        fab.close()


class TestFabricConformance:
    def test_surface_and_refusals(self, any_fabric):
        fab, mine, foreign = any_fabric
        for name in ("register_sink", "unregister_sink", "transmit",
                     "nranks", "node_of", "cpu_send_overhead", "fault_hook",
                     "last_fault", "executor"):
            assert hasattr(fab, name), name
        assert fab.nranks == 4 and fab.node_of(mine) == 0
        assert fab.cpu_send_overhead() >= 0.0
        assert fab.fault_hook is None and fab.last_fault is None

        seen = []
        fab.register_sink(mine, lambda s, p, t: seen.append((s, p)))
        with pytest.raises(CommError, match="already has a registered sink"):
            fab.register_sink(mine, lambda s, p, t: None)
        with pytest.raises(CommError):
            fab.register_sink(foreign, lambda s, p, t: None)
        with pytest.raises(CommError, match="out of range"):
            fab.transmit(mine, 99, 8, "x")

        fab.transmit(mine, mine, 8, "self")
        if hasattr(fab.executor, "drain"):
            fab.executor.drain()
        assert seen == [(mine, "self")]
        fab.unregister_sink(mine)

    def test_wave_capable_exactly_where_waves_exist(self, any_fabric):
        fab, mine, _ = any_fabric
        mux = FabricMux(fab, mine)
        mux.register_channel("c", lambda s, p, t: None)
        assert mux.wave_capable("c") == hasattr(fab, "transmit_wave")
        assert hasattr(fab, "transmit_wave") == isinstance(fab, SimFabric)
