"""RFC 1071's per-word one's-complement sum, kept as a differential oracle.

``repro.net.checksum.ones_complement_sum`` sums every 16-bit word first
and folds the carries once; this is the loop it replaced, which folds
after every word.  ``tests/test_net_checksum.py`` checks they agree.
"""


def ones_complement_sum_per_word(data: bytes) -> int:
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total
