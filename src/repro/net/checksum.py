"""RFC 1071 Internet checksum.

The UDP trace-ID trim path in the paper calls ``pskb_trim_rcsum()``,
which adjusts the receive checksum after removing the appended ID bytes;
our :mod:`repro.core.packet_id` does the same incremental update, so the
arithmetic lives here where tests can hammer it with hypothesis.
"""

from __future__ import annotations

import struct


def ones_complement_sum(data: bytes) -> int:
    """16-bit one's-complement sum of ``data`` (odd length zero-padded).

    All words are summed first and the carries folded at the end:
    one's-complement addition is associative, so this equals RFC 1071's
    fold after every word.
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes) -> int:
    """The Internet checksum (complement of the one's-complement sum)."""
    return (~ones_complement_sum(data)) & 0xFFFF


def verify_checksum(data_with_checksum: bytes) -> bool:
    """True when a buffer that embeds its checksum sums to 0xFFFF."""
    return ones_complement_sum(data_with_checksum) == 0xFFFF


def checksum_remove_trailing(checksum: int, removed: bytes) -> int:
    """Incrementally update ``checksum`` after trimming ``removed`` bytes
    from the end of the checksummed region (the ``pskb_trim_rcsum`` analog).

    Works for regions whose length stays even before and after the trim,
    which holds for our 4-byte trace IDs.
    """
    if len(removed) % 2:
        raise ValueError("can only trim an even number of bytes incrementally")
    partial = ones_complement_sum(removed)
    # checksum = ~sum(all); sum(remaining) = sum(all) - sum(removed)
    full_sum = (~checksum) & 0xFFFF
    remaining = (full_sum - partial) & 0xFFFF
    if partial > full_sum:
        remaining = (remaining - 1) & 0xFFFF  # borrow in one's complement
    return (~remaining) & 0xFFFF
