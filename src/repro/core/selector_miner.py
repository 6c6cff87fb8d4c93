"""Function-selector collision mining (the §2.3 attacker experiment).

The paper observes that crafting a function whose 4-byte selector collides
with a target function is "remarkably easy": the authors found a name
hashing to ``free_ether_withdrawal()``'s ``0xdf4a3106`` after ~600 million
attempts in 1.5 hours on a laptop.  This module implements that attack
primitive honestly:

* :func:`mine_selector` searches candidate prototypes
  (``{prefix}{counter}()``) for one whose selector matches the target on
  its first ``prefix_bits`` bits.  Full 32-bit collisions take 2³¹ expected
  attempts — run it with a smaller ``prefix_bits`` for demos/tests and use
  :func:`estimate_full_collision_attempts` to extrapolate, exactly as the
  paper reports its wall-clock figure.
* :func:`mining_rate` measures local attempts/second.

This is an analysis/education utility for understanding how cheap the
attack is; ProxioN's detectors are the defense.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs import provenance
from repro.obs.provenance import NULL_TRAIL, EvidenceTrail
from repro.obs.registry import default_registry
from repro.obs.spans import SpanTracer
from repro.utils.abi import SELECTOR_BYTES
from repro.utils.keccak import keccak256_many

# All mining timings flow through one tracer on the shared obs clock, so
# ``span.seconds{name="selector_mining"|"mining_rate"}`` histograms in the
# process-wide registry see every run (pass your own tracer to redirect).
_tracer = SpanTracer(registry=default_registry())

# Candidates hashed per keccak256_many call.  Wider batches cost less per
# hash (6.5–8 µs at 256 against ~11 µs at 32 on a 2-vCPU Intel Xeon VM),
# but a job that hits at attempt k still pays for the whole batch, so the
# luckiest jobs' time per attempt grows with the width.
_BATCH = 256


@dataclass(frozen=True, slots=True)
class MiningResult:
    """Outcome of a selector-collision search."""

    prototype: str | None      # the colliding prototype, or None if not found
    attempts: int
    seconds: float
    target: bytes
    matched_bits: int

    @property
    def found(self) -> bool:
        return self.prototype is not None

    @property
    def attempts_per_second(self) -> float:
        return self.attempts / self.seconds if self.seconds else 0.0


def _matches(selector: bytes, target: bytes, bits: int) -> bool:
    if bits >= 32:
        return selector == target
    full_bytes, tail_bits = divmod(bits, 8)
    if selector[:full_bytes] != target[:full_bytes]:
        return False
    if tail_bits == 0:
        return True
    mask = (0xFF << (8 - tail_bits)) & 0xFF
    return (selector[full_bytes] & mask) == (target[full_bytes] & mask)


def _batches(count: int):
    """``range(count)`` as consecutive ranges of at most ``_BATCH``."""
    return (range(start, min(start + _BATCH, count))
            for start in range(0, count, _BATCH))


def mine_selector(target: bytes, prefix_bits: int = 32,
                  max_attempts: int = 10_000_000,
                  name_prefix: str = "impl_",
                  tracer: SpanTracer | None = None,
                  trail: EvidenceTrail = NULL_TRAIL) -> MiningResult:
    """Search for a prototype colliding with ``target`` on ``prefix_bits``.

    Expected attempts: 2**prefix_bits / 2 on average.  Candidates are
    hashed 256 at a time through :func:`keccak256_many`, which runs
    ~8×10⁴ attempts/second (median 81k/s, 70–107k/s over ten runs of the
    benchmark's ``mine`` workload on a 2-vCPU Intel Xeon VM under CPython
    3.11): a 24-bit prefix takes ~2 minutes on average there, and a full
    32-bit collision extrapolates to ~7 h.  ``trail`` records the attempt budget spent and
    the mined prototype, so an attack selector cited elsewhere can show
    where it came from.
    """
    if len(target) != 4:
        raise ConfigurationError("target selector must be 4 bytes")
    if not 1 <= prefix_bits <= 32:
        raise ConfigurationError("prefix_bits must be in 1..32")

    tracer = tracer or _tracer
    with tracer.span("selector_mining", target="0x" + target.hex(),
                     prefix_bits=prefix_bits) as span:
        found: str | None = None
        attempts = max_attempts
        for batch in _batches(max_attempts):
            prototypes = [f"{name_prefix}{attempt:x}()" for attempt in batch]
            digests = keccak256_many([p.encode("ascii") for p in prototypes])
            for attempt, prototype, digest in zip(batch, prototypes, digests):
                if _matches(digest[:SELECTOR_BYTES], target, prefix_bits):
                    found = prototype
                    attempts = attempt + 1
                    break
            if found is not None:
                break
        span.set(attempts=attempts, found=found is not None)
        if found is not None:
            trail.note(provenance.MINING_RESULT, name=found,
                       selector="0x" + target.hex(), attempts=attempts,
                       prefix_bits=prefix_bits)
        else:
            trail.note(provenance.MINING_ATTEMPT, name=name_prefix + "*",
                       attempts=attempts, prefix_bits=prefix_bits)
    return MiningResult(
        prototype=found,
        attempts=attempts,
        seconds=span.duration,
        target=target,
        matched_bits=prefix_bits,
    )


def mining_rate(sample_attempts: int = 3000,
                tracer: SpanTracer | None = None) -> float:
    """Local selector-hashing throughput in attempts/second."""
    tracer = tracer or _tracer
    with tracer.span("mining_rate", attempts=sample_attempts) as span:
        for batch in _batches(sample_attempts):
            keccak256_many([f"rate_probe_{attempt}()".encode("ascii")
                            for attempt in batch])
    elapsed = span.duration
    return sample_attempts / elapsed if elapsed else 0.0


def estimate_full_collision_attempts() -> int:
    """Expected attempts for a full 4-byte collision (2³¹ on average)."""
    return 1 << 31


def estimate_full_collision_hours(rate: float | None = None) -> float:
    """Extrapolated wall-clock hours for a full collision at ``rate``.

    The paper: ~600M attempts in 1.5h on a commodity laptop (~1.1×10⁵
    H/s).  The batched pure-Python sponge here mines ~8×10⁴ attempts/s on
    a 2-vCPU Intel Xeon VM under CPython 3.11, so 2³¹ attempts come to
    ~7 h there; the estimate uses *this* machine's measured rate.
    """
    rate = rate or mining_rate()
    return estimate_full_collision_attempts() / rate / 3600
