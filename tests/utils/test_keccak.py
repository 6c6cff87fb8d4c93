"""Keccak-256 against published vectors, structural properties, and the
test-only reference implementation (differential oracle)."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.keccak import (
    keccak256,
    keccak256_hex,
    keccak256_many,
    keccak_f1600,
)

from tests.utils import keccak_reference

# Published Keccak-256 (pre-NIST padding) test vectors.
KNOWN_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (b"testing", "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02"),
    (
        b"The quick brown fox jumps over the lazy dog",
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    ),
]


@pytest.mark.parametrize("message,expected", KNOWN_VECTORS)
def test_known_vectors(message: bytes, expected: str) -> None:
    assert keccak256_hex(message) == expected
    assert keccak_reference.keccak256(message).hex() == expected


# ------------------------------------------- differential: fast vs reference
# Lengths 0-700 cover the empty message, the single-0x81-byte padding case
# (135, 271, ...), exact rate multiples (136, 272, ...) and up to six
# absorbed blocks.
@given(st.integers(min_value=0, max_value=700).flatmap(
    lambda length: st.binary(min_size=length, max_size=length)))
@settings(max_examples=150, deadline=None)
def test_sponge_matches_reference(data: bytes) -> None:
    assert keccak256(data) == keccak_reference.keccak256(data)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1),
                min_size=25, max_size=25))
@settings(max_examples=100, deadline=None)
def test_permutation_matches_reference(lanes: list[int]) -> None:
    fast, reference = list(lanes), list(lanes)
    keccak_f1600(fast)
    keccak_reference.keccak_f1600(reference)
    assert fast == reference


# ------------------------------------ differential: batched vs one at a time
# Lengths that straddle the 1-, 2- and 3-block padding boundaries; every
# batch of at least 8 messages mixes them with random lengths up to 700.
BOUNDARY_LENGTHS = (0, 135, 136, 137, 271, 272, 273, 700)


@pytest.mark.parametrize("size", [0, 1, 2, 255, 256, 257])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=3, deadline=None)
def test_many_matches_scalar_and_reference(size: int, seed: int) -> None:
    rng = random.Random(seed)
    lengths = [BOUNDARY_LENGTHS[index] if index < len(BOUNDARY_LENGTHS)
               else rng.randint(0, 700) for index in range(size)]
    rng.shuffle(lengths)
    messages = [rng.randbytes(length) for length in lengths]
    digests = keccak256_many(messages)
    assert digests == [keccak256(message) for message in messages]
    assert digests == [keccak_reference.keccak256(message)
                       for message in messages]


def test_ethereum_function_selectors() -> None:
    """The selectors quoted in the paper and the ERC-20 standard."""
    assert keccak256(b"free_ether_withdrawal()")[:4].hex() == "df4a3106"
    assert keccak256(b"transfer(address,uint256)")[:4].hex() == "a9059cbb"
    assert keccak256(b"balanceOf(address)")[:4].hex() == "70a08231"


def test_differs_from_nist_sha3() -> None:
    """Ethereum Keccak uses 0x01 padding, NIST SHA-3 uses 0x06."""
    assert keccak256(b"") != hashlib.sha3_256(b"").digest()


def test_digest_is_32_bytes() -> None:
    assert len(keccak256(b"x")) == 32


def test_rate_boundary_lengths() -> None:
    """Messages around the 136-byte rate exercise the multi-block path and
    the one-byte (0x81) padding case."""
    lengths = (135, 136, 137, 271, 272, 273)
    digests = {keccak256(b"a" * n) for n in lengths}
    assert len(digests) == 6  # all distinct
    for n in lengths:
        assert keccak256(b"a" * n) == keccak_reference.keccak256(b"a" * n)


@given(st.binary(max_size=512))
@settings(max_examples=200)
def test_deterministic(data: bytes) -> None:
    assert keccak256(data) == keccak256(data)


@given(st.binary(max_size=256), st.binary(min_size=1, max_size=8))
def test_collision_resistant_on_small_perturbations(data: bytes,
                                                    suffix: bytes) -> None:
    assert keccak256(data) != keccak256(data + suffix)


@given(st.binary(max_size=600))
def test_digest_always_32_bytes(data: bytes) -> None:
    assert len(keccak256(data)) == 32


def test_eip1967_slot_constant() -> None:
    """The well-known EIP-1967 implementation slot value."""
    slot = int.from_bytes(keccak256(b"eip1967.proxy.implementation"), "big") - 1
    assert hex(slot) == (
        "0x360894a13ba1a3210667c828492db98dca3e2076cc3735a920a3ca505d382bbc"
    )
