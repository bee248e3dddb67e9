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
:meth:`NoiseModel.measure_planned` seeds the whole tick at once: numpy's
``SeedSequence`` (pool size 4; a ``uint64`` entropy zero-padded to four
words hashes exactly as the unpadded one) runs as four array rounds over
the batch's ``(4, n)`` ``uint32`` pool, its ``generate_state(4, uint64)``
as one more, PCG64's ``(state, inc)`` follows as
``pcg_setseq_128_srandom_r`` derives it, and one reused ``PCG64`` +
``Generator`` is set to it per read.  That relies on
the stream-stability numpy guarantees for ``SeedSequence`` and PCG64
seeding (NEP 19); ``tests/pmu/test_counters.py`` pins it against
``default_rng`` draw for draw and fails if a numpy ever breaks it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.machine.spec import PMUSpec

__all__ = ["NoiseModel"]

_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


def _u32(v) -> np.ndarray:
    # an array constant costs numpy less than a scalar one on small arrays
    return np.array(v, dtype=np.uint32)


_MIX_L, _MIX_R, _SHIFT = _u32(0xCA01F9DD), _u32(0x4973F715), _u32(16)


def _hash_keys(init: int, mult: int, n: int) -> np.ndarray:
    """The (xor, multiply) constant pairs of ``n`` successive hash steps as a
    ``(2, n, 1)`` array: the running hash constant never depends on the data."""
    keys = []
    for _ in range(n):
        nxt = init * mult & _M32
        keys.append((init, nxt))
        init = nxt
    return _u32(keys).T[:, :, None]


#: 4 pool fills + 12 cross-mixes (SeedSequence.mix_entropy), then the 8
#: output words of generate_state(4, uint64), lanes 0-3 twice.
_MIX_KEYS = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
_STATE_KEYS = _hash_keys(0x8B51F9DD, 0x58F38DED, 8)
_STATE_LANES = [0, 1, 2, 3, 0, 1, 2, 3]
#: cross-mix round ``src``'s key per lane; lane ``src``'s zero key is a dummy
_ROUND_KEYS = [np.insert(_MIX_KEYS[:, 4 + 3 * s:7 + 3 * s], s, 0, axis=1) for s in range(4)]


def _hashmix(v: np.ndarray, keys: np.ndarray) -> np.ndarray:
    v = (v ^ keys[0]) * keys[1]
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``default_rng(seed)`` for each row of
    ``words``, an ``(n, 2)`` ``uint32`` array of seeds' low and high words.
    The twelve cross-mixes run as four rounds, one per source lane: round
    ``src`` never writes lane ``src``, so its hashes and mixes are one
    ``(4, n)`` step each, after which lane ``src`` is put back as it was."""
    pool = np.zeros((4, len(words)), dtype=np.uint32)
    pool[:2] = words.T
    pool = _hashmix(pool, _MIX_KEYS[:, :4])
    for src, keys in enumerate(_ROUND_KEYS):
        lane = pool[src]
        pool = _mix(pool, _hashmix(lane, keys))
        pool[src] = lane
    out = _hashmix(pool[_STATE_LANES], _STATE_KEYS).T.astype("<u4", order="C")
    states = []
    for s_hi, s_lo, i_hi, i_lo in out.view("<u8").tolist():
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

    def identity(self, cpu: int, event: str) -> bytes:
        """A read's identity up to its window: the head of the bytes whose
        blake2b seeds the read's noise stream."""
        return f"{self.machine_seed}:{cpu}:{event}".encode()

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
        reads over one window [t0, t1), in order: :meth:`measure_planned`
        with each read's :meth:`identity`."""
        identity = self.identity
        return self.measure_planned(
            [r[0] for r in reads], [identity(r[1], r[2]) for r in reads],
            [r[3] for r in reads], t0, t1)

    def measure_planned(self, true_values: list[float], identities: list[bytes],
                        mux_groups: list[int], t0: float, t1: float) -> list[float]:
        """Measured values of reads given as parallel lists over one window
        [t0, t1).  A zero true value draws nothing and measures 0.0; one
        outside ``[0, inf)`` (NaN included) is refused, not measured."""
        window = f":{t0:.9f}:{t1:.9f}".encode()
        blake2b = hashlib.blake2b
        digests = []
        for true_value, ident, mux in zip(true_values, identities, mux_groups):
            if not 0.0 <= true_value < math.inf:
                raise ValueError(
                    f"counter accumulation must be finite and >= 0, got {true_value!r}")
            if mux < 1:
                raise ValueError("mux_groups must be >= 1")
            if true_value:
                digests.append(blake2b(ident + window, digest_size=8).digest())
        if not digests:
            return [0.0] * len(true_values)
        words = np.frombuffer(b"".join(digests), dtype="<u4").reshape(-1, 2)
        states = iter(_pcg64_states(words))

        # normal(0.0, scale) is 0.0 + scale * z: scale * z, bit for bit
        bitgen, z = self._bitgen, self._gen.standard_normal
        pcg = {"state": 0, "inc": 0}
        full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        over = self.pmu.overcount_ppm * 1e-6
        jitter_sd = self.pmu.jitter_ppm * 1e-6
        out = []
        for true_value, mux in zip(true_values, mux_groups):
            if not true_value:
                out.append(0.0)
                continue
            pcg["state"], pcg["inc"] = next(states)
            bitgen.state = full
            rel = over + jitter_sd * z()
            if mux > 1:
                # Extrapolation error ~0.8 % per extra group (empirically what
                # perf-style time-slicing costs on steady workloads).
                rel += 0.008 * (mux - 1) * z()
            out.append(max(0.0, true_value * (1.0 + rel)))
        return out
