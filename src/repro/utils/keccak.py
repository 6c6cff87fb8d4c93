"""Pure-Python Keccak-256 as used by Ethereum.

Ethereum uses the original Keccak submission (multi-rate padding byte
``0x01``), *not* the finalized NIST SHA-3 (padding byte ``0x06``), so Python's
``hashlib.sha3_256`` produces different digests and cannot be used.  This
module implements the Keccak-f[1600] permutation and the sponge construction
from scratch.

The permutation is written out straight-line over 25 local lanes: one
loop over the 24 round constants, no per-round lists, no helper calls.
Python pays per bytecode and per temporary object, and the unrolled round
runs ~3x faster than the textbook loop nest.  That readable loop nest is
kept as the test-only reference (``tests/utils/keccak_reference.py``);
hypothesis tests in ``tests/utils/test_keccak.py`` check this fast path
against it and against published vectors (e.g. ``keccak256(b"") ==
c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470``).
"""

from __future__ import annotations

import struct

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

# Keccak-256 parameters: 1088-bit rate (136 bytes = 17 lanes), 512-bit
# capacity, 32-byte digest (the first 4 lanes, little-endian).
_RATE_BYTES = 136
_RATE_LANES = struct.Struct("<17Q")
_DIGEST_LANES = struct.Struct("<4Q")


def keccak_f1600(state: list[int]) -> None:
    """Apply the Keccak-f[1600] permutation to a 25-lane state in place.

    The state is a flat list of 25 64-bit integers, indexed lane(x, y) =
    state[x + 5 * y] per the Keccak reference ordering.  The rotation
    offsets r[x][y] of the rho step are the literal shift counts below.
    """
    mask = _LANE_MASK
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15,
     a16, a17, a18, a19, a20, a21, a22, a23, a24) = state
    for rc in _ROUND_CONSTANTS:
        # theta: column parities c, mixed into every lane as d[x].
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & mask)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & mask)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & mask)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & mask)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & mask)
        # rho + pi: lane (x, y) rotated by r[x][y] into b(y, 2x + 3y).
        b0 = a0 ^ d0
        t = a5 ^ d0
        b16 = (t << 36 | t >> 28) & mask
        t = a10 ^ d0
        b7 = (t << 3 | t >> 61) & mask
        t = a15 ^ d0
        b23 = (t << 41 | t >> 23) & mask
        t = a20 ^ d0
        b14 = (t << 18 | t >> 46) & mask
        t = a1 ^ d1
        b10 = (t << 1 | t >> 63) & mask
        t = a6 ^ d1
        b1 = (t << 44 | t >> 20) & mask
        t = a11 ^ d1
        b17 = (t << 10 | t >> 54) & mask
        t = a16 ^ d1
        b8 = (t << 45 | t >> 19) & mask
        t = a21 ^ d1
        b24 = (t << 2 | t >> 62) & mask
        t = a2 ^ d2
        b20 = (t << 62 | t >> 2) & mask
        t = a7 ^ d2
        b11 = (t << 6 | t >> 58) & mask
        t = a12 ^ d2
        b2 = (t << 43 | t >> 21) & mask
        t = a17 ^ d2
        b18 = (t << 15 | t >> 49) & mask
        t = a22 ^ d2
        b9 = (t << 61 | t >> 3) & mask
        t = a3 ^ d3
        b5 = (t << 28 | t >> 36) & mask
        t = a8 ^ d3
        b21 = (t << 55 | t >> 9) & mask
        t = a13 ^ d3
        b12 = (t << 25 | t >> 39) & mask
        t = a18 ^ d3
        b3 = (t << 21 | t >> 43) & mask
        t = a23 ^ d3
        b19 = (t << 56 | t >> 8) & mask
        t = a4 ^ d4
        b15 = (t << 27 | t >> 37) & mask
        t = a9 ^ d4
        b6 = (t << 20 | t >> 44) & mask
        t = a14 ^ d4
        b22 = (t << 39 | t >> 25) & mask
        t = a19 ^ d4
        b13 = (t << 8 | t >> 56) & mask
        t = a24 ^ d4
        b4 = (t << 14 | t >> 50) & mask
        # chi (NOT as XOR with the mask: no negative ints); iota.
        a0 = b0 ^ ((b1 ^ mask) & b2)
        a1 = b1 ^ ((b2 ^ mask) & b3)
        a2 = b2 ^ ((b3 ^ mask) & b4)
        a3 = b3 ^ ((b4 ^ mask) & b0)
        a4 = b4 ^ ((b0 ^ mask) & b1)
        a5 = b5 ^ ((b6 ^ mask) & b7)
        a6 = b6 ^ ((b7 ^ mask) & b8)
        a7 = b7 ^ ((b8 ^ mask) & b9)
        a8 = b8 ^ ((b9 ^ mask) & b5)
        a9 = b9 ^ ((b5 ^ mask) & b6)
        a10 = b10 ^ ((b11 ^ mask) & b12)
        a11 = b11 ^ ((b12 ^ mask) & b13)
        a12 = b12 ^ ((b13 ^ mask) & b14)
        a13 = b13 ^ ((b14 ^ mask) & b10)
        a14 = b14 ^ ((b10 ^ mask) & b11)
        a15 = b15 ^ ((b16 ^ mask) & b17)
        a16 = b16 ^ ((b17 ^ mask) & b18)
        a17 = b17 ^ ((b18 ^ mask) & b19)
        a18 = b18 ^ ((b19 ^ mask) & b15)
        a19 = b19 ^ ((b15 ^ mask) & b16)
        a20 = b20 ^ ((b21 ^ mask) & b22)
        a21 = b21 ^ ((b22 ^ mask) & b23)
        a22 = b22 ^ ((b23 ^ mask) & b24)
        a23 = b23 ^ ((b24 ^ mask) & b20)
        a24 = b24 ^ ((b20 ^ mask) & b21)
        a0 ^= rc
    state[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13,
                a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)



def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data`` (Ethereum flavour)."""
    # Keccak multi-rate padding: 0x01 after the message, 0x80 on the last
    # byte of the final block (one 0x81 byte when a single byte is left).
    padding = _RATE_BYTES - len(data) % _RATE_BYTES
    if padding == 1:
        message = b"".join((data, b"\x81"))
    else:
        message = b"".join((data, b"\x01", bytes(padding - 2), b"\x80"))

    # Absorb: XOR each rate block into the first 17 lanes and permute.
    state = [0] * 25
    for offset in range(0, len(message), _RATE_BYTES):
        for lane, word in enumerate(_RATE_LANES.unpack_from(message, offset)):
            state[lane] ^= word
        keccak_f1600(state)

    # Squeeze: 32 bytes fit inside one rate block, so no extra permute.
    return _DIGEST_LANES.pack(*state[:4])


def keccak256_hex(data: bytes) -> str:
    """Return the Keccak-256 digest of ``data`` as a lowercase hex string."""
    return keccak256(data).hex()
