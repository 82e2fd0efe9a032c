"""Reproducible randomness streams and binomial random (hyper)graph samplers.

A single 64-bit master seed fans out into independent substreams addressed
by a (purpose tag, trial index) pair.  Substream derivation is splittable,
not sequential, so results never depend on scheduling order: the same
(seed, tag, index) triple produces the identical value sequence on every
platform and in every run.  An index is a 64-bit word, 0 <= index < 2**64;
any other is a ValueError, never a wrapped alias of a valid one.

``RandomSource.uniforms(tag, start, stop, m)`` computes the first m
uniforms of every substream ``start <= index < stop`` at once, as numpy
arrays: row i equals ``stream(tag, start + i).random(m)`` bit for bit.  It
runs numpy's ``SeedSequence`` mixing and the PCG64 generator (O'Neill,
"PCG: A family of simple fast space-efficient statistically good
algorithms for random number generation", 2014) over the trial index, so
a driver whose every trial makes one fixed-length uniform draw skips
building a generator per trial.
"""

from __future__ import annotations

import hashlib
import struct
import warnings
from functools import lru_cache
from itertools import combinations

import numpy as np

from .graphs import Graph, UniformHypergraph

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence hash constants (pool of four 32-bit words) and the
# PCG64 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)


def _tag_words(tag: str) -> tuple[int, int]:
    digest = hashlib.blake2b(tag.encode("utf-8"), digest_size=8).digest()
    lo, hi = struct.unpack("<II", digest)
    return lo, hi


def _check_index(index: int) -> None:
    """A substream index is a 64-bit word: 0 <= index < 2**64."""
    if not 0 <= index <= _MASK64:
        raise ValueError(f"stream index must satisfy 0 <= index < 2**64, got {index}")


class RandomSource:
    """Master seed plus substream derivation for deterministic experiments.

    ``stream(tag, index)`` returns a fresh numpy Generator whose state is a
    pure function of (seed, tag, index).  Distinct (tag, index) pairs give
    statistically independent streams; a single stream is single-consumer.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")

    def stream(self, tag: str, index: int = 0) -> np.random.Generator:
        _check_index(index)
        lo, hi = _tag_words(tag)
        spawn = (lo, hi, index & 0xFFFFFFFF, (index >> 32) & 0xFFFFFFFF)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=spawn)
        return np.random.Generator(np.random.PCG64(seq))

    def uniforms(self, tag: str, start: int, stop: int, m: int) -> np.ndarray:
        """Float64 array of shape (stop - start, m) whose row i is
        ``self.stream(tag, start + i).random(m)``, bit for bit.

        The seed words, the tag words and the hash constants are the same
        for every row; only the index words are mixed as arrays.
        """
        if not 0 <= start <= stop <= _MASK64 + 1:
            raise ValueError(f"need 0 <= start <= stop <= 2**64, got {start}, {stop}")
        if m < 0:
            raise ValueError(f"draw length must be nonnegative, got {m}")
        # SeedSequence pads the seed to the pool size when a spawn key is given.
        words = [self.seed & _MASK32] + ([self.seed >> 32] if self.seed >> 32 else [])
        words += [0] * (4 - len(words))
        index = np.arange(start, stop, dtype=np.uint64)
        hash_const = _INIT_A
        pool = []
        for word in words:
            mixed, hash_const = _hashmix(word, hash_const)
            pool.append(mixed)
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    mixed, hash_const = _hashmix(pool[src], hash_const)
                    pool[dst] = _mix(pool[dst], mixed)
        for word in (*_tag_words(tag), index & _MASK32, index >> 32):
            for dst in range(4):
                mixed, hash_const = _hashmix(word, hash_const)
                pool[dst] = _mix(pool[dst], mixed)
        # generate_state(4, uint64): eight 32-bit words, paired little-endian.
        hash_const = _INIT_B
        state = []
        for i in range(8):
            word = pool[i % 4] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            word = (word * hash_const) & _MASK32
            state.append(word ^ (word >> 16))
        seed_hi, seed_lo, seq_hi, seq_lo = (state[i] | (state[i + 1] << 32) for i in range(0, 8, 2))
        # PCG64 seeding: state 0, inc = (seq << 1) | 1, step, add the seed, step.
        inc_hi = (seq_hi << 1) | (seq_lo >> 63)
        inc_lo = (seq_lo << 1) | 1
        lo = inc_lo + seed_lo
        hi, lo = _pcg_step(inc_hi + seed_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
        out = np.empty((stop - start, m), dtype=np.float64)
        for j in range(m):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            # XSL-RR output, then the top 53 bits as a double in [0, 1).
            rot = hi >> 58
            x = hi ^ lo
            x = (x >> rot) | (x << ((-rot) & 63))
            out[:, j] = (x >> 11) * 2.0**-53
        return out

    def key_bytes(self, tag: str, index: int = 0) -> bytes:
        """16-byte key derived from (seed, tag, index), for keyed-hash tables."""
        _check_index(index)
        material = struct.pack("<QQ", self.seed, index) + tag.encode("utf-8")
        return hashlib.blake2b(material, digest_size=16).digest()

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix of 32-bit words (ints or uint64 arrays);
    returns the mixed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ (result >> 16)


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One step of the 128-bit LCG, state * multiplier + inc mod 2**128, on
    (high, low) uint64 halves; the low-by-low product's high half comes
    from 32-bit limbs."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    prod_lo = lo * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = carry + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + (new_lo < prod_lo)
    return new_hi, new_lo


@lru_cache(maxsize=16)
def _subsets(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The r-subsets of range(n) in the order the samplers draw them."""
    return tuple(combinations(range(n), r))


def sample_gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Binomial random graph: each of the C(n,2) pairs is an edge with probability p."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    pairs = _subsets(n, 2)
    if p == 0.0:
        return Graph(n)
    if p == 1.0:
        return Graph(n, pairs)
    hits = rng.random(len(pairs)) < p
    return Graph(n, [pairs[i] for i in np.flatnonzero(hits)])


def sample_uniform_hypergraph(
    n: int, r: int, p: float, rng: np.random.Generator
) -> UniformHypergraph:
    """Binomial r-uniform hypergraph: each r-subset appears with probability p."""
    if r < 2:
        raise ValueError(f"uniformity must be at least 2, got {r}")
    if n < r:
        raise ValueError(f"host too small: need n >= r, got n={n}, r={r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    tuples = _subsets(n, r)
    if p == 0.0:
        return UniformHypergraph(n, r)
    if p == 1.0:
        return UniformHypergraph(n, r, tuples)
    hits = rng.random(len(tuples)) < p
    return UniformHypergraph(n, r, [tuples[i] for i in np.flatnonzero(hits)])


class EdgeLabelTable:
    """Uniform [0,1) labels on vertex pairs, fixed once drawn.

    Labels are materialized lazily from a keyed hash of the canonical pair,
    so querying order never matters and no quadratic preallocation happens.
    Thresholding at p yields a graph distributed as a G(n,p) sample, and
    threshold views are nested across p (monotone coupling).
    """

    def __init__(self, n: int, key: bytes):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        self._key = key
        self._cache: dict[tuple[int, int], float] = {}

    def label(self, u: int, v: int) -> float:
        if u == v:
            raise ValueError("labels exist only for distinct vertex pairs")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair {(u, v)} out of range for n={self.n}")
        pair = (u, v) if u < v else (v, u)
        got = self._cache.get(pair)
        if got is None:
            digest = hashlib.blake2b(
                struct.pack("<QQ", pair[0], pair[1]), key=self._key, digest_size=8
            ).digest()
            got = int.from_bytes(digest, "little") / 2**64
            self._cache[pair] = got
        return got

    def threshold_graph(self, p: float) -> Graph:
        """Graph of all pairs with label below p (materializes every pair)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {p}")
        edges = [
            (u, v) for u, v in combinations(range(self.n), 2) if self.label(u, v) < p
        ]
        return Graph(self.n, edges)


def derive_labels(n: int, rng: RandomSource, index: int = 0) -> EdgeLabelTable:
    """Deterministic edge-label table for a fixed n-vertex ground set."""
    return EdgeLabelTable(n, rng.key_bytes("edge-labels", index))


def clamp_probability(p: float, context: str = "") -> tuple[float, bool]:
    """Clamp a derived probability into [0, 1], warning when it overflows."""
    if p > 1.0:
        warnings.warn(
            f"derived edge probability {p:.6g} exceeds 1, clamping to 1"
            + (f" ({context})" if context else ""),
            stacklevel=2,
        )
        return 1.0, True
    if p < 0.0:
        raise ValueError(f"derived edge probability is negative: {p}")
    return p, False
