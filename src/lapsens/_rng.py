"""Blocks of `np.random.default_rng((seed, step)).uniform(low, high, size)`, bit for bit.

`sim.run_sweep` seeds each step's measurement noise with (seed, step).
Building that generator hashes a `SeedSequence` and sets up a `PCG64` every
time, so the sweep takes a block of steps for all its seeds from
`uniform_block` instead. It runs numpy's own arithmetic on arrays, one row
per (seed, step):

1. `SeedSequence`: the entropy, each integer as its little-endian uint32
   words, is hashed into a pool of 4 words, and the pool into 8 output
   words. The hash constants change with every hash, in an order fixed by
   the entropy's length alone.
2. `PCG64`: the output words give the 128-bit initial state and increment
   of the LCG s -> M*s + inc. After k steps the state is
   M^k * s + (M^(k-1) + ... + 1) * inc mod 2**128 (O'Neill, *PCG: A Family
   of Simple Fast Space-Efficient Statistically Good Algorithms for Random
   Number Generation*, 2014), so the state behind every draw is two products
   with precomputed multipliers, on uint64 halves.
3. Each state's XSL-RR output, its top 53 bits as a double u in [0, 1), and
   `low + (high - low) * u`, as `Generator.uniform` computes it.

`sim.measure_weights` keeps `default_rng`, so the tests hold this module to
numpy itself.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
POOL_SIZE = 4
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_words(n) -> list[int]:
    """`SeedSequence`'s uint32 words of a non-negative integer, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & MASK32]
    while n > MASK32:
        n >>= 32
        words.append(n & MASK32)
    return words


def uniform_block(seeds, start: int, count: int, low: float, high: float, size) -> np.ndarray:
    """`default_rng((seed, step)).uniform(low, high, size)` for each seed and step.

    The steps are `start` to `start + count - 1`, below 2**64. Returns an array
    of shape (len(seeds), count, *size). Seeds raise as numpy raises them: a
    negative one ValueError and a non-integer TypeError, before any output.
    """
    words = [seed_words(seed) for seed in seeds]
    low, high = float(low), float(high)
    span = high - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    size = tuple(size)
    draws = math.prod(size)
    out = np.empty((len(words), count, draws))
    steps = np.arange(start, start + count, dtype=np.uint64)
    step_words = np.array([steps & MASK32, steps >> 32], dtype=np.uint32)
    step_widths = np.where(steps > MASK32, 2, 1)
    # One pass per entropy length; zero words past the entropy hash as the
    # pool's padding does.
    for width in set(map(len, words)):
        rows = [i for i, w in enumerate(words) if len(w) == width]
        for step_width in set(step_widths.tolist()):
            cols = np.flatnonzero(step_widths == step_width)
            length = width + step_width
            entropy = np.zeros((max(POOL_SIZE, length), len(rows), len(cols)), np.uint32)
            entropy[:width] = np.array([words[i] for i in rows], dtype=np.uint32).T[:, :, None]
            entropy[width:length] = step_words[:step_width, None, cols]
            doubles = _doubles(entropy.reshape(len(entropy), -1), draws)
            out[np.ix_(rows, cols)] = (low + span * doubles).reshape(len(rows), len(cols), draws)
    return out.reshape(len(words), count, *size)


@functools.lru_cache(maxsize=8)
def _hash_constants(length: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of every hash `SeedSequence` runs on `length` words.

    Each is a (hashes, 1) uint32 column in the order the hashes run: the pool's
    hashes from INIT_A, then the 8 output words' from INIT_B.
    """
    xors, mults = [], []
    for init, mult, count in [(INIT_A, MULT_A, 4 * length), (INIT_B, MULT_B, 8)]:
        h = init
        for _ in range(count):
            xors.append(h)
            h = h * mult & MASK32
            mults.append(h)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * MIX_MULT_L - y * MIX_MULT_R
    return value ^ (value >> 16)


_OTHERS = [np.array([i for i in range(POOL_SIZE) if i != src]) for src in range(POOL_SIZE)]


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(column).generate_state(8)` per column of `entropy`, as (8, columns) uint32.

    `entropy` holds at least POOL_SIZE words per column. Each pass below runs
    the hashes that numpy runs one after another on different pool words.
    """
    xor, mult = _hash_constants(len(entropy))
    pool = _hash(entropy[:POOL_SIZE], xor[:POOL_SIZE], mult[:POOL_SIZE])
    n = POOL_SIZE
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[n : n + 3], mult[n : n + 3]))
        n += 3
    for word in entropy[POOL_SIZE:]:
        pool = _mix(pool, _hash(word, xor[n : n + POOL_SIZE], mult[n : n + POOL_SIZE]))
        n += POOL_SIZE
    return _hash(np.tile(pool, (2, 1)), xor[n:], mult[n:])


@functools.lru_cache(maxsize=16)
def _jumps(draws: int) -> tuple[np.ndarray, ...]:
    """The multipliers of the seeded state and of inc behind draws 1..`draws`.

    Seeding leaves the state at M*init + (M + 1)*inc, and draw j reads the
    state j steps on: M^(j+1) * init + (M^(j+1) + ... + 1) * inc. Returns
    the two multipliers' high 64 bits, low 64 bits, and the low half's low
    and high 32 bits, each as (2, 1, draws) uint64: init's, then inc's.
    """
    mod = 1 << 128
    mult, total = PCG_MULT, 1 + PCG_MULT
    values = []
    for _ in range(draws):
        mult = mult * PCG_MULT % mod
        total = (total * PCG_MULT + 1) % mod
        values.append((mult, total))
    values = np.array(values, dtype=object).T[:, None, :]
    high = (values >> 64).astype(np.uint64)
    low = (values & MASK64).astype(np.uint64)
    return high, low, low & MASK32, low >> 32


def _mulhi(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products of uint64 `a` and `b1 << 32 | b0`."""
    a0, a1 = a & MASK32, a >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _doubles(entropy: np.ndarray, draws: int) -> np.ndarray:
    """`PCG64(SeedSequence(column)).random(draws)` per column of `entropy`, (columns, draws).

    A 128-bit number is held as its high and low uint64 halves; numpy's
    uint64 products and sums wrap modulo 2**64.
    """
    w = _state_words(entropy).astype(np.uint64)
    # The state words pair up little-endian into uint64s v0..v3; the initial
    # state is v0:v1 and the increment v2:v3 << 1 | 1.
    v = w[0::2] | w[1::2] << 32
    high = np.stack([v[0], v[2] << 1 | v[3] >> 63])[:, :, None]
    low = np.stack([v[1], v[3] << 1 | 1])[:, :, None]
    # The state behind each draw: init * A + inc * C, the two products stacked.
    m_high, m_low, m0, m1 = _jumps(draws)
    lows = low * m_low
    state_low = lows[0] + lows[1]
    state_high = (_mulhi(low, m0, m1) + high * m_low + low * m_high).sum(axis=0)
    state_high += state_low < lows[0]  # the carry out of the low halves' sum
    # XSL-RR: the xor of the two halves, rotated right by the top 6 bits.
    value = state_high ^ state_low
    rot = state_high >> 58
    value = value >> rot | value << (-rot & 63)
    return (value >> 11) * (1.0 / 9007199254740992.0)
