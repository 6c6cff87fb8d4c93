"""Test-only reference Keccak-256: the readable textbook sponge.

This is the loop-nest form of Keccak-f[1600] (theta, rho+pi, chi, iota
per round, with a rotation helper) and a lane-by-lane padded sponge.
It is deliberately slow and obviously correct; the fast straight-line
implementation in :mod:`repro.utils.keccak` is checked against it by the
differential tests in ``test_keccak.py``.
"""

from __future__ import annotations

# Rotation offsets r[x][y] for the rho step, indexed [x][y].
_ROTATION_OFFSETS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)

# Round constants for the iota step of Keccak-f[1600] (24 rounds).
_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_LANE_MASK = 0xFFFFFFFFFFFFFFFF

# Keccak-256 parameters: 1088-bit rate (136 bytes), 512-bit capacity.
_RATE_BYTES = 136
_DIGEST_BYTES = 32


def _rotl64(value: int, shift: int) -> int:
    """Rotate a 64-bit lane left by ``shift`` bits."""
    return ((value << shift) | (value >> (64 - shift))) & _LANE_MASK


def keccak_f1600(state: list[int]) -> None:
    """Apply the Keccak-f[1600] permutation to a 25-lane state in place.

    The state is a flat list of 25 64-bit integers, indexed lane(x, y) =
    state[x + 5 * y] per the Keccak reference ordering.
    """
    for round_constant in _ROUND_CONSTANTS:
        # theta: column parities mixed into every lane.
        parities = [
            state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
            for x in range(5)
        ]
        for x in range(5):
            theta_effect = parities[(x - 1) % 5] ^ _rotl64(parities[(x + 1) % 5], 1)
            for y in range(0, 25, 5):
                state[x + y] ^= theta_effect

        # rho (rotations) and pi (lane permutation), combined.
        rotated = [0] * 25
        for x in range(5):
            for y in range(5):
                rotated[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl64(
                    state[x + 5 * y], _ROTATION_OFFSETS[x][y]
                )

        # chi: non-linear row mixing.
        for y in range(0, 25, 5):
            row = rotated[y:y + 5]
            for x in range(5):
                state[x + y] = row[x] ^ ((~row[(x + 1) % 5]) & row[(x + 2) % 5])

        # iota: break symmetry with the round constant.
        state[0] ^= round_constant


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data`` (Ethereum flavour)."""
    state = [0] * 25

    # Absorb phase: XOR rate-sized blocks into the state and permute.  The
    # final (possibly empty) partial block gets Keccak multi-rate padding:
    # 0x01 after the message, 0x80 on the last byte of the block.
    padded_tail = bytearray(data[len(data) - (len(data) % _RATE_BYTES):])
    full_blocks_end = len(data) - len(padded_tail)
    padded_tail.append(0x01)
    padded_tail.extend(b"\x00" * (_RATE_BYTES - len(padded_tail)))
    padded_tail[-1] |= 0x80

    for block_start in range(0, full_blocks_end, _RATE_BYTES):
        block = data[block_start:block_start + _RATE_BYTES]
        for lane_index in range(_RATE_BYTES // 8):
            state[lane_index] ^= int.from_bytes(
                block[lane_index * 8:lane_index * 8 + 8], "little"
            )
        keccak_f1600(state)

    for lane_index in range(_RATE_BYTES // 8):
        state[lane_index] ^= int.from_bytes(
            padded_tail[lane_index * 8:lane_index * 8 + 8], "little"
        )
    keccak_f1600(state)

    # Squeeze phase: 32 bytes fit inside one rate block, so no extra permute.
    digest = bytearray()
    for lane_index in range(_DIGEST_BYTES // 8):
        digest.extend(state[lane_index].to_bytes(8, "little"))
    return bytes(digest)
