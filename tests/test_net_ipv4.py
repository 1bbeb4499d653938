"""IPv4 math."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ipv4 import (
    MAX_IPV4,
    Prefix,
    int_to_ip,
    ip_to_int,
    is_reserved,
    parse_prefix,
)


class TestConversions:
    def test_roundtrip_known(self):
        assert ip_to_int("1.2.3.4") == 0x01020304
        assert int_to_ip(0x01020304) == "1.2.3.4"

    @given(st.integers(min_value=0, max_value=MAX_IPV4))
    @settings(max_examples=100)
    def test_roundtrip_property(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""])
    def test_invalid_addresses(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_int_out_of_range(self):
        with pytest.raises(ValueError):
            int_to_ip(-1)
        with pytest.raises(ValueError):
            int_to_ip(MAX_IPV4 + 1)


class TestPrefix:
    def test_contains(self):
        prefix = parse_prefix("192.0.2.0/24")
        assert prefix.contains(ip_to_int("192.0.2.55"))
        assert not prefix.contains(ip_to_int("192.0.3.1"))

    def test_num_slash24(self):
        assert parse_prefix("10.0.0.0/22").num_slash24 == 4
        assert parse_prefix("10.0.0.0/24").num_slash24 == 1

    def test_slash24_bases(self):
        bases = parse_prefix("10.0.0.0/23").slash24_bases()
        assert bases == [ip_to_int("10.0.0.0"), ip_to_int("10.0.1.0")]

    def test_invalid_network_bits(self):
        with pytest.raises(ValueError):
            Prefix(ip_to_int("10.0.0.1"), 24)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            Prefix(0, 40)

    def test_parse_requires_length(self):
        with pytest.raises(ValueError):
            parse_prefix("10.0.0.0")

    def test_random_ip_within(self):
        prefix = parse_prefix("198.51.100.0/24")
        rng = random.Random(1)
        for _ in range(50):
            address = prefix.random_ip(rng)
            assert prefix.contains(address)
            assert address & 0xFF not in (0, 255)

    def test_str(self):
        assert str(parse_prefix("10.0.0.0/8")) == "10.0.0.0/8"


class TestReserved:
    @pytest.mark.parametrize(
        "address",
        ["10.1.1.1", "127.0.0.1", "192.168.1.1", "172.16.0.1", "224.0.0.1", "0.1.2.3"],
    )
    def test_reserved(self, address):
        assert is_reserved(ip_to_int(address))

    @pytest.mark.parametrize("address", ["1.1.1.1", "8.8.8.8", "203.0.113.7"])
    def test_not_reserved(self, address):
        assert not is_reserved(ip_to_int(address))
