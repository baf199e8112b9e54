"""Round-robin file striping across storage servers (PVFS "simple_stripe").

A byte range of a striped file decomposes into per-server extents.  The
partitioner returns both fine-grained chunks (for request-level schedulers)
and per-server aggregates (the fluid default).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

__all__ = ["StripeLayout"]


class StripeLayout:
    """Round-robin striping of a file over ``nservers`` servers.

    Stripe unit ``k`` (0-based, ``stripe_size`` bytes each) lives on server
    ``(first_server + k) % nservers`` — PVFS2's default distribution.
    """

    def __init__(self, nservers: int, stripe_size: int = 64 * 1024,
                 first_server: int = 0):
        if nservers < 1:
            raise ValueError(f"nservers must be >= 1, got {nservers}")
        if stripe_size < 1:
            raise ValueError(f"stripe_size must be >= 1, got {stripe_size}")
        self.nservers = int(nservers)
        self.stripe_size = int(stripe_size)
        self.first_server = int(first_server) % nservers

    def server_of(self, offset: int) -> int:
        """Server index holding the byte at ``offset``."""
        if offset < 0:
            raise ValueError("offset must be >= 0")
        return (self.first_server + offset // self.stripe_size) % self.nservers

    def chunks(self, offset: int, size: int) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(server, server-local file offset, nbytes)`` per stripe unit.

        The server-local offset is the position within that server's portion
        of the file (contiguous per server under round robin).
        """
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be >= 0")
        pos = offset
        end = offset + size
        while pos < end:
            unit = pos // self.stripe_size
            within = pos - unit * self.stripe_size
            take = min(self.stripe_size - within, end - pos)
            server = (self.first_server + unit) % self.nservers
            local = (unit // self.nservers) * self.stripe_size + within
            yield server, local, take
            pos += take

    def partition(self, offset: int, size: int) -> Dict[int, int]:
        """Total bytes landing on each server for a byte range.

        Computed in closed form (no per-stripe loop) so million-stripe
        ranges cost O(nservers), and O(1) on a single server.
        """
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be >= 0")
        if size == 0:
            return {}
        ss, n = self.stripe_size, self.nservers
        if n == 1:
            return {0: size}
        first_unit = offset // ss
        last_unit = (offset + size - 1) // ss
        nunits = last_unit - first_unit + 1
        # Full bytes if every touched unit were complete:
        full, extra = divmod(nunits, n)
        totals = [full * ss] * n
        # Servers (in rotation order starting at the first touched unit) that
        # get one extra unit.
        start = (self.first_server + first_unit) % n
        for i in range(extra):
            totals[(start + i) % n] += ss
        # Trim the partial head and tail units.
        head_trim = offset - first_unit * ss
        tail_trim = (last_unit + 1) * ss - (offset + size)
        totals[start] -= head_trim
        totals[(self.first_server + last_unit) % n] -= tail_trim
        return {s: b for s, b in enumerate(totals) if b > 0}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StripeLayout(nservers={self.nservers}, "
            f"stripe_size={self.stripe_size}, first_server={self.first_server})"
        )
