"""RFC 1071 checksum + the pskb_trim_rcsum incremental update."""

from hypothesis import given, strategies as st

from repro.net.addressing import IPv4Address
from repro.net.checksum import (
    checksum_remove_trailing,
    internet_checksum,
    ones_complement_sum,
    verify_checksum,
)
from repro.net.packet import IPv4Header
from tests.oracles.checksum import ones_complement_sum_per_word


class TestChecksumBasics:
    def test_known_vector(self):
        # Classic example from RFC 1071 discussions.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_empty_buffer(self):
        assert internet_checksum(b"") == 0xFFFF

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_verify_with_embedded_checksum(self):
        payload = b"hello world!"
        csum = internet_checksum(payload)
        with_csum = payload + csum.to_bytes(2, "big")
        assert verify_checksum(with_csum)

    @given(st.binary(min_size=0, max_size=256))
    def test_checksum_in_16bit_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(st.binary(min_size=0, max_size=128))
    def test_sum_is_order_sensitive_but_bounded(self, data):
        assert 0 <= ones_complement_sum(data) <= 0xFFFF


class TestTrailingRemoval:
    @given(st.binary(min_size=2, max_size=128).filter(lambda b: len(b) % 2 == 0),
           st.binary(min_size=4, max_size=4))
    def test_incremental_matches_recompute(self, body, trailer):
        full = body + trailer
        csum_full = internet_checksum(full)
        updated = checksum_remove_trailing(csum_full, trailer)
        assert updated == internet_checksum(body)

    def test_odd_trailer_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            checksum_remove_trailing(0, b"\x01")


class TestFoldOnceMatchesPerWordFold:
    """The sum folds its carries once, at the end; RFC 1071 folds after
    every word.  One's-complement addition is associative, so they agree."""

    @given(st.binary(max_size=256))
    def test_matches_per_word_oracle(self, data):
        assert ones_complement_sum(data) == ones_complement_sum_per_word(data)

    @given(st.binary(min_size=20, max_size=20))
    def test_ipv4_header_sized_buffers(self, header):
        assert ones_complement_sum(header) == ones_complement_sum_per_word(header)

    def test_extremes(self):
        for data in (b"", bytes(20), b"\xff" * 20, b"\x45" + bytes(19), b"\xff\xfe" * 10, b"\x01"):
            assert ones_complement_sum(data) == ones_complement_sum_per_word(data)


class TestIPv4HeaderChecksum:

    @given(
        src=st.integers(min_value=0, max_value=0xFFFFFFFF),
        dst=st.integers(min_value=0, max_value=0xFFFFFFFF),
        protocol=st.integers(min_value=0, max_value=255),
        ttl=st.integers(min_value=0, max_value=255),
        identification=st.integers(min_value=0, max_value=0xFFFF),
        total_length=st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_packed_header_verifies(self, src, dst, protocol, ttl, identification, total_length):
        header = IPv4Header(
            IPv4Address(src),
            IPv4Address(dst),
            protocol,
            ttl=ttl,
            identification=identification,
            total_length=total_length,
        ).pack()
        assert verify_checksum(header)
        zeroed = header[:10] + bytes(2) + header[12:]
        assert int.from_bytes(header[10:12], "big") == internet_checksum(zeroed)
