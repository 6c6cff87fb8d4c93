"""Deterministic address partitioning."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.evm.state import EMPTY_CODE_HASH
from repro.parallel import STRATEGIES, shard_addresses

ADDRESSES = [bytes([i]) * 20 for i in range(1, 24)]


def test_roundrobin_balances_and_preserves_relative_order() -> None:
    partitions = shard_addresses(ADDRESSES, 4, "roundrobin")
    assert [len(p) for p in partitions] == [6, 6, 6, 5]
    for shard, partition in enumerate(partitions):
        assert partition == ADDRESSES[shard::4]


def test_partitions_are_disjoint_and_complete() -> None:
    for strategy in STRATEGIES:
        partitions = shard_addresses(ADDRESSES, 5, strategy,
                                     code_hash_of=lambda a: a * 2)
        flat = [address for partition in partitions for address in partition]
        assert sorted(flat) == sorted(ADDRESSES)
        assert len(flat) == len(set(flat))


def test_codehash_groups_identical_code_on_one_shard() -> None:
    # Clone family: many addresses, one runtime codehash → one shard, so
    # the §6.1 caches see the whole family locally.
    family_hash = b"\x60\x80" * 16
    partitions = shard_addresses(ADDRESSES, 4, "codehash",
                                 code_hash_of=lambda a: family_hash)
    populated = [p for p in partitions if p]
    assert len(populated) == 1
    assert populated[0] == ADDRESSES


def test_codehash_is_deterministic_across_calls() -> None:
    code_hash_of = lambda a: a[:1] * 32  # noqa: E731
    first = shard_addresses(ADDRESSES, 3, "codehash",
                            code_hash_of=code_hash_of)
    second = shard_addresses(list(ADDRESSES), 3, "codehash",
                             code_hash_of=code_hash_of)
    assert first == second


def test_codehash_handles_codeless_addresses() -> None:
    partitions = shard_addresses(ADDRESSES, 3, "codehash",
                                 code_hash_of=lambda a: EMPTY_CODE_HASH)
    flat = [address for partition in partitions for address in partition]
    assert sorted(flat) == sorted(ADDRESSES)


def test_single_shard_is_the_identity_partition() -> None:
    assert shard_addresses(ADDRESSES, 1, "roundrobin") == [ADDRESSES]
    assert shard_addresses(ADDRESSES, 1, "codehash",
                           code_hash_of=lambda a: a) == [ADDRESSES]


def test_bad_strategy_and_shard_count_are_rejected() -> None:
    with pytest.raises(ConfigurationError, match="unknown shard strategy"):
        shard_addresses(ADDRESSES, 2, "alphabetical")
    with pytest.raises(ConfigurationError, match="shard count"):
        shard_addresses(ADDRESSES, 0, "roundrobin")
