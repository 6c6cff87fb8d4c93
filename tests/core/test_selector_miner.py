"""Selector-collision mining (the §2.3 attacker experiment)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.selector_miner import (
    MiningResult,
    _matches,
    estimate_full_collision_attempts,
    estimate_full_collision_hours,
    mine_selector,
    mining_rate,
)
from repro.utils.abi import function_selector

BUDGETS = (1, 50, 255, 256, 257, 1000)


def scalar_mine(target: bytes, prefix_bits: int, max_attempts: int,
                name_prefix: str = "impl_") -> tuple[str | None, int]:
    """The one-hash-per-candidate mining loop: the oracle for the batched
    search, which must return the same prototype and attempt count."""
    for attempt in range(max_attempts):
        prototype = f"{name_prefix}{attempt:x}()"
        if _matches(function_selector(prototype), target, prefix_bits):
            return prototype, attempt + 1
    return None, max_attempts


def _mined(target: bytes, prefix_bits: int, max_attempts: int,
           name_prefix: str = "impl_") -> tuple[str | None, int]:
    result = mine_selector(target, prefix_bits=prefix_bits,
                           max_attempts=max_attempts, name_prefix=name_prefix)
    return result.prototype, result.attempts


def test_matches_full_and_prefix() -> None:
    assert _matches(b"\xde\xad\xbe\xef", b"\xde\xad\xbe\xef", 32)
    assert not _matches(b"\xde\xad\xbe\xee", b"\xde\xad\xbe\xef", 32)
    assert _matches(b"\xde\xad\x00\x00", b"\xde\xad\xff\xff", 16)
    assert _matches(b"\xde\xa0\x00\x00", b"\xde\xaf\xff\xff", 12)
    assert not _matches(b"\xde\xb0\x00\x00", b"\xde\xaf\xff\xff", 12)


def test_mine_12bit_collision_found() -> None:
    target = function_selector("free_ether_withdrawal()")
    result = mine_selector(target, prefix_bits=12, max_attempts=200_000)
    assert result.found
    mined = function_selector(result.prototype)
    assert _matches(mined, target, 12)
    # Expected ~2^11 = 2048 attempts; generous bound.
    assert result.attempts < 100_000


def test_mined_prototype_is_valid_and_distinct() -> None:
    target = function_selector("transfer(address,uint256)")
    result = mine_selector(target, prefix_bits=10, max_attempts=100_000)
    assert result.found
    assert result.prototype != "transfer(address,uint256)"
    assert result.prototype.endswith("()")


def test_not_found_within_budget() -> None:
    result = mine_selector(b"\x00\x00\x00\x01", prefix_bits=32,
                           max_attempts=50)
    assert not result.found
    assert result.attempts == 50


def test_rejects_bad_inputs() -> None:
    with pytest.raises(ValueError):
        mine_selector(b"\x00" * 3)
    with pytest.raises(ValueError):
        mine_selector(b"\x00" * 4, prefix_bits=0)
    with pytest.raises(ValueError):
        mine_selector(b"\x00" * 4, prefix_bits=33)


def test_rate_and_extrapolation() -> None:
    rate = mining_rate(sample_attempts=500)
    assert rate > 100  # even pure Python manages hundreds of H/s
    assert estimate_full_collision_attempts() == 2 ** 31
    hours = estimate_full_collision_hours(rate)
    assert hours > 0


def test_result_properties() -> None:
    result = MiningResult(prototype="x()", attempts=10, seconds=2.0,
                          target=b"\x00" * 4, matched_bits=8)
    assert result.found
    assert result.attempts_per_second == 5.0


@given(target=st.binary(min_size=4, max_size=4),
       prefix_bits=st.integers(min_value=4, max_value=14),
       max_attempts=st.sampled_from(BUDGETS))
@settings(max_examples=30, deadline=None)
# Four bits match many candidates of one batch; the earliest must win.
@example(target=function_selector("transfer(address,uint256)"),
         prefix_bits=4, max_attempts=256)
def test_batched_search_matches_scalar_oracle(target: bytes, prefix_bits: int,
                                              max_attempts: int) -> None:
    assert _mined(target, prefix_bits, max_attempts) == scalar_mine(
        target, prefix_bits, max_attempts)


@pytest.mark.parametrize("max_attempts", BUDGETS)
def test_exhausted_budget_counts_every_attempt(max_attempts: int) -> None:
    # The target is the first candidate past the budget, so the whole
    # budget is spent without a match, however it splits into batches.
    target = function_selector(f"impl_{max_attempts:x}()")
    assert _mined(target, 32, max_attempts) == (None, max_attempts)
    assert _mined(target, 32, max_attempts + 1) == (
        f"impl_{max_attempts:x}()", max_attempts + 1)


@pytest.mark.parametrize("index", [0, 254, 255, 256, 257, 511, 999])
def test_hit_at_a_batch_boundary(index: int) -> None:
    # A full 32-bit target taken from candidate ``index`` is found exactly
    # there: the first match wins, and attempts = index + 1.
    target = function_selector(f"edge_{index:x}()")
    expected = (f"edge_{index:x}()", index + 1)
    assert _mined(target, 32, 1000, name_prefix="edge_") == expected
    assert scalar_mine(target, 32, 1000, name_prefix="edge_") == expected
