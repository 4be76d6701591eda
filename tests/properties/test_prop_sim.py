"""Property-based tests: coherence, address spaces, channels, clocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.errors import AddressError
from repro.sim.bandwidth import SharedChannel
from repro.sim.coherence import CoherenceDirectory, LineState
from repro.sim.events import Simulator
from repro.sim.memory import MemoryDevice

coherence_ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "evict"]),
        st.integers(min_value=0, max_value=3),    # agent
        st.integers(min_value=0, max_value=7),    # line
    ),
    max_size=300,
)


@given(ops=coherence_ops)
@settings(max_examples=80, deadline=None)
def test_mesi_invariants_always_hold(ops):
    """The Sec 2.1 invariants survive any operation interleaving."""
    directory = CoherenceDirectory()
    agents = [directory.register_agent() for _ in range(4)]
    for op, agent_index, line in ops:
        agent = agents[agent_index]
        if op == "read":
            directory.read(agent, line)
        elif op == "write":
            directory.write(agent, line)
            # Write serialization: writer is the only holder.
            assert directory.holders_of(line) == {agent}
            assert directory.state_of(line) is LineState.MODIFIED
        else:
            directory.evict(agent, line)
        directory.check_invariants()


@given(ops=coherence_ops)
@settings(max_examples=50, deadline=None)
def test_message_counters_are_consistent(ops):
    directory = CoherenceDirectory()
    agents = [directory.register_agent() for _ in range(4)]
    for op, agent_index, line in ops:
        agent = agents[agent_index]
        if op == "read":
            messages = directory.read(agent, line)
        elif op == "write":
            messages = directory.write(agent, line)
        else:
            messages = directory.evict(agent, line)
        assert messages >= 0
    stats = directory.stats
    assert stats.read_misses <= stats.reads
    assert stats.write_misses <= stats.writes
    assert stats.messages >= stats.invalidations_sent


@given(sizes=st.lists(st.integers(min_value=1, max_value=1 << 20),
                      min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_allocator_never_loses_bytes(sizes):
    """allocate/free round trips conserve capacity exactly."""
    device = MemoryDevice(config.local_ddr5(capacity_bytes=1 << 26))
    offsets = []
    for size in sizes:
        try:
            offsets.append(device.allocate(size))
        except AddressError:
            break
    allocated = device.allocated_bytes
    assert allocated + device.free_bytes == device.capacity_bytes
    for offset in offsets:
        device.free(offset)
    assert device.allocated_bytes == 0
    assert device.free_bytes == device.capacity_bytes
    # After freeing everything the device must coalesce to one hole.
    device.allocate(device.capacity_bytes)


@given(requests=st.lists(
    st.tuples(st.integers(min_value=1, max_value=10_000),
              st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False)),
    min_size=1, max_size=100,
))
@settings(max_examples=50, deadline=None)
def test_channel_completions_monotone_in_arrival_order(requests):
    """A FIFO channel never completes a later request before an
    earlier one, and busy time equals work done."""
    channel = SharedChannel("prop", 2.0)
    requests = sorted(requests, key=lambda r: r[1])
    last_done = 0.0
    total_bytes = 0
    for size, now in requests:
        done = channel.request(size, now)
        assert done >= last_done
        assert done >= now
        last_done = done
        total_bytes += size
    assert channel.bytes_transferred == total_bytes
    assert channel.busy_time_ns == pytest.approx(total_bytes / 2.0)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False),
                       min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_simulator_dispatch_order_is_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.at(delay, lambda d=delay: fired.append(d))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
