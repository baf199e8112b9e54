"""Unit + property tests for stripe layout arithmetic."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage import StripeLayout


def test_single_server_gets_everything():
    layout = StripeLayout(nservers=1, stripe_size=100)
    assert layout.partition(0, 1234) == {0: 1234}


def test_round_robin_unit_mapping():
    layout = StripeLayout(nservers=3, stripe_size=10)
    assert layout.server_of(0) == 0
    assert layout.server_of(9) == 0
    assert layout.server_of(10) == 1
    assert layout.server_of(25) == 2
    assert layout.server_of(30) == 0


def test_first_server_rotation():
    layout = StripeLayout(nservers=4, stripe_size=10, first_server=2)
    assert layout.server_of(0) == 2
    assert layout.server_of(10) == 3
    assert layout.server_of(20) == 0


def test_partition_exact_units():
    layout = StripeLayout(nservers=2, stripe_size=10)
    assert layout.partition(0, 40) == {0: 20, 1: 20}


def test_partition_partial_head_and_tail():
    layout = StripeLayout(nservers=2, stripe_size=10)
    # bytes 5..24: server0 gets 5..9 (5B) + 20..24 (5B); server1 gets 10..19.
    assert layout.partition(5, 20) == {0: 10, 1: 10}


def test_partition_small_within_one_unit():
    layout = StripeLayout(nservers=5, stripe_size=100)
    assert layout.partition(250, 30) == {2: 30}


def test_partition_zero_size():
    layout = StripeLayout(nservers=3, stripe_size=10)
    assert layout.partition(100, 0) == {}


def test_chunks_cover_range_in_order():
    layout = StripeLayout(nservers=3, stripe_size=10)
    # Bytes 5..29 span units 0 (5 B tail), 1 (full), 2 (full).
    chunks = list(layout.chunks(5, 25))
    assert sum(c[2] for c in chunks) == 25
    assert [c[0] for c in chunks] == [0, 1, 2]
    assert [c[2] for c in chunks] == [5, 10, 10]


def test_chunks_local_offsets_contiguous_per_server():
    layout = StripeLayout(nservers=2, stripe_size=10)
    # units 0,2 -> server0 local offsets 0,10 ; units 1,3 -> server1 0,10
    chunks = list(layout.chunks(0, 40))
    by_server = {}
    for s, local, n in chunks:
        by_server.setdefault(s, []).append((local, n))
    assert by_server[0] == [(0, 10), (10, 10)]
    assert by_server[1] == [(0, 10), (10, 10)]


def test_invalid_parameters():
    with pytest.raises(ValueError):
        StripeLayout(nservers=0)
    with pytest.raises(ValueError):
        StripeLayout(nservers=1, stripe_size=0)
    layout = StripeLayout(nservers=2, stripe_size=10)
    with pytest.raises(ValueError):
        layout.partition(-1, 10)
    with pytest.raises(ValueError):
        layout.server_of(-5)


@settings(max_examples=200, deadline=None)
@given(
    nservers=st.integers(min_value=1, max_value=40),
    stripe=st.integers(min_value=1, max_value=1 << 20),
    first=st.integers(min_value=0, max_value=100),
    offset=st.integers(min_value=0, max_value=1 << 30),
    size=st.integers(min_value=0, max_value=1 << 26),
)
@example(nservers=4, stripe=100, first=1, offset=250, size=0)
@example(nservers=4, stripe=100, first=1, offset=300, size=100)  # one unit
@example(nservers=1, stripe=100, first=0, offset=123, size=4567)
@example(nservers=8, stripe=1 << 30, first=5, offset=(1 << 30) - 7,
         size=(1 << 30) + 9)  # 1 GiB stripe, partial head and tail
def test_partition_matches_chunks_and_conserves_bytes(nservers, stripe, first,
                                                      offset, size):
    """Closed-form partition == brute-force chunk walk; bytes conserved.

    Keys are plain ints in ascending server order, the order in which the
    file system submits per-server requests.
    """
    layout = StripeLayout(nservers, stripe, first)
    fast = layout.partition(offset, size)
    slow = {}
    for server, _local, nbytes in layout.chunks(offset, size):
        slow[server] = slow.get(server, 0) + nbytes
    assert list(fast.items()) == sorted(slow.items())
    assert all(type(k) is int and type(v) is int for k, v in fast.items())
    assert sum(fast.values()) == size


@settings(max_examples=100, deadline=None)
@given(
    nservers=st.integers(min_value=1, max_value=16),
    stripe=st.integers(min_value=1, max_value=4096),
    offset=st.integers(min_value=0, max_value=1 << 20),
    size=st.integers(min_value=1, max_value=1 << 18),
)
def test_partition_balance_bound(nservers, stripe, offset, size):
    """No server exceeds another by more than one stripe unit."""
    layout = StripeLayout(nservers, stripe)
    parts = layout.partition(offset, size)
    if len(parts) == nservers:
        spread = max(parts.values()) - min(parts.values())
        assert spread <= 2 * stripe  # head+tail trims at most one unit each
