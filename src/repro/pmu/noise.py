"""Measurement noise for PMU reads.

Real hardware counters are not exact: Weaver et al. [28] document both a
systematic overcount (interrupt/syscall boundary effects) and run-to-run
jitter; multiplexed events add extrapolation error on top.  Fig 4 of the
paper exists to show these errors stay small enough for coherent performance
models — so this reproduction needs the same error structure.

Noise is deterministic per read: the RNG is derived from the read's identity
(machine seed, cpu, event, window), so re-reading the same window yields the
same measured value, and experiment outcomes are reproducible bit-for-bit.

Each read's stream is ``np.random.default_rng(seed)`` with ``seed`` the
little-endian ``uint64`` of an 8-byte blake2b of the identity string.  A
sampler tick reads every event on every cpu over one window, so
:meth:`NoiseModel.measure_batch` seeds the whole tick at once: numpy's
``SeedSequence`` (pool size 4; a ``uint64`` entropy zero-padded to four
words hashes exactly as the unpadded one) and its ``generate_state(4,
uint64)`` run vectorised over the batch in ``uint32`` arrays, PCG64's
``(state, inc)`` follows as ``pcg_setseq_128_srandom_r`` derives it, and
one reused ``PCG64`` + ``Generator`` is set to it per read.  That relies on
the stream-stability numpy guarantees for ``SeedSequence`` and PCG64
seeding (NEP 19); ``tests/pmu/test_counters.py`` pins it against
``default_rng`` draw for draw and fails if a numpy ever breaks it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.machine.spec import PMUSpec

__all__ = ["NoiseModel"]

_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_keys(init: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constant pair of each of ``n`` successive hash
    steps: the running hash constant never depends on the data."""
    keys = []
    for _ in range(n):
        nxt = init * mult & _M32
        keys.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return keys


#: 4 pool fills + 12 cross-mixes (SeedSequence.mix_entropy), then the 8
#: output words of generate_state(4, uint64).
_MIX_KEYS = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
_STATE_KEYS = _hash_keys(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v: np.ndarray, key: tuple[np.uint32, np.uint32]) -> np.ndarray:
    v = (v ^ key[0]) * key[1]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(seed)`` for each row of
    ``words``, an ``(n, 2)`` ``uint32`` array of seeds' low and high words."""
    keys = iter(_MIX_KEYS)
    zero = np.zeros(len(words), dtype=np.uint32)
    pool = [_hashmix(w, next(keys)) for w in (words[:, 0], words[:, 1], zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(keys)))
    out = np.stack([_hashmix(pool[i % 4], key) for i, key in enumerate(_STATE_KEYS)], axis=1)
    states = []
    for s_hi, s_lo, i_hi, i_lo in out.astype("<u4").view("<u8").tolist():
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _M128
        states.append(((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc & _M128, inc))
    return states


class NoiseModel:
    """Applies overcount + jitter + multiplexing error to true counts."""

    def __init__(self, pmu: PMUSpec, machine_seed: int = 0) -> None:
        self.pmu = pmu
        self.machine_seed = machine_seed
        self._bitgen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bitgen)

    def measure(
        self,
        true_value: float,
        cpu: int,
        event: str,
        t0: float,
        t1: float,
        mux_groups: int = 1,
    ) -> float:
        """Measured counter value for a true accumulation over [t0, t1) —
        :meth:`measure_batch` of one read.

        ``mux_groups`` > 1 means the event shared its counter slot with
        other event groups and was extrapolated from a 1/mux_groups time
        slice (linear scaling, as Linux perf does), adding relative error
        that grows with the number of groups.
        """
        return self.measure_batch([(true_value, cpu, event, mux_groups)], t0, t1)[0]

    def measure_batch(
        self, reads: list[tuple[float, int, str, int]], t0: float, t1: float
    ) -> list[float]:
        """Measured values of many ``(true_value, cpu, event, mux_groups)``
        reads over one window [t0, t1), in order.  A zero true value draws
        nothing and measures 0.0."""
        window = f":{t0:.9f}:{t1:.9f}"
        head = f"{self.machine_seed}:"
        blake2b = hashlib.blake2b
        digests = []
        for true_value, cpu, event, mux_groups in reads:
            if true_value < 0:
                raise ValueError("counter accumulation cannot be negative")
            if mux_groups < 1:
                raise ValueError("mux_groups must be >= 1")
            if true_value != 0.0:
                ident = f"{head}{cpu}:{event}{window}".encode()
                digests.append(blake2b(ident, digest_size=8).digest())
        if not digests:
            return [0.0] * len(reads)
        words = np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, 2)
        states = iter(_pcg64_states(words))

        bitgen, normal = self._bitgen, self._gen.normal
        over = self.pmu.overcount_ppm * 1e-6
        jitter_sd = self.pmu.jitter_ppm * 1e-6
        out = []
        for true_value, _, _, mux_groups in reads:
            if true_value == 0.0:
                out.append(0.0)
                continue
            state, inc = next(states)
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            rel = over + normal(0.0, jitter_sd)
            if mux_groups > 1:
                # Extrapolation error ~0.8 % per extra group (empirically what
                # perf-style time-slicing costs on steady workloads).
                rel += normal(0.0, 0.008 * (mux_groups - 1))
            out.append(max(0.0, true_value * (1.0 + rel)))
        return out
