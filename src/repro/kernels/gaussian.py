"""Batched n-fold Gaussian pinning with per-user RNG streams preserved.

The pinning stage (Definition 7: ``n`` candidates per top location) is
embarrassingly parallel across users, but reproducibility requires each
user's noise to come from that user's own stream regardless of how the
population is chunked across workers.  The stream of user ``uid`` is
``default_rng(SeedSequence(entropy=seed, spawn_key=(uid,)))``.

:func:`user_uniforms` reads every user's stream for a whole chunk
without building a ``SeedSequence`` or ``PCG64`` per user: the
SeedSequence pool mixing, ``generate_state`` and PCG64's 128-bit
seeding step are replayed as uint32/uint64 array arithmetic over all
the chunk's user ids at once.  What stays per user is one state
assignment on a single reused ``PCG64`` and one ``random_raw`` read;
the ``>> 11`` double conversion ``Generator.random`` applies runs once
over the chunk.  The arithmetic is numpy's own, word for word, so the
bytes equal ``user_rng(seed, uid).random(count)``.  Every transform
(uniform scaling, Rayleigh inversion, polar conversion, location add)
is batched over the whole shard as well.

Because ``SeedSequence(seed).spawn(n)[i]`` equals
``SeedSequence(entropy=seed, spawn_key=(i,))``, per-user streams are a
pure function of ``(seed, global user id)``: the same user produces the
same candidates under ``--workers 1`` and ``--workers 8``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sampling import polar_to_cartesian, rayleigh_radius_from_uniform

__all__ = [
    "user_rng",
    "user_uniforms",
    "split_user_blocks",
    "pin_candidates_population",
]

_TWO_PI = 2.0 * math.pi

# numpy.random.SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), split in
# its high and low uint64 words.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_LO32 = np.uint64(_MASK32)
_U1 = np.uint64(1)
_U32 = np.uint64(32)

#: ``Generator.random``: ``(next_uint64 >> 11) * 2**-53``.
_DOUBLE_SHIFT = np.uint64(11)
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


def user_rng(seed: int, uid: int) -> np.random.Generator:
    """The spawned per-user Generator for global user id ``uid``.

    Identical to ``default_rng(SeedSequence(seed).spawn(uid + 1)[uid])``
    but O(1): spawn keys address child streams directly.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(int(uid),))
    )


class _HashMix:
    """SeedSequence's ``hashmix`` with its running hash constant."""

    def __init__(self, init: int, mult: int) -> None:
        self.const = init
        self.mult = mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High word of the 128-bit product ``a * b`` (schoolbook on 32-bit halves)."""
    a0, a1 = a & _LO32, a >> _U32
    b0, b1 = b & _LO32, b >> _U32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _U32) + (p01 & _LO32) + (p10 & _LO32)
    return p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _entropy_words(seed: int) -> List[int]:
    """``seed`` as SeedSequence's little-endian uint32 entropy words."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _pcg64_seed_states(
    seed: int, uids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded PCG64 ``(state_hi, state_lo, inc_hi, inc_lo)`` for every uid.

    Replays, over arrays, what ``PCG64(SeedSequence(entropy=seed,
    spawn_key=(uid,)))`` computes per user: the pool mixing of the
    assembled entropy (the seed's words, zero-padded to the pool size
    because a spawn key follows, then the uid word), ``generate_state(4,
    uint64)``, and PCG64's ``srandom``: state 0, ``inc = (initseq << 1)
    | 1``, step, add the seed, step.
    """
    words = _entropy_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.array([w], dtype=np.uint32) for w in words]
    entropy.append(uids.astype(np.uint32))

    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    hashmix = _HashMix(_INIT_B, _MULT_B)
    w = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (
        w[2 * j] | (w[2 * j + 1] << _U32) for j in range(4)
    )

    inc_hi = (seq_hi << _U1) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << _U1) | _U1
    # Step from state 0 leaves ``inc``; add the seed (carry into hi).
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    # Step: state * MULT + inc (mod 2**128).
    prod_lo = lo * _PCG_MULT_LO
    prod_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo)
    return state_hi, state_lo, inc_hi, inc_lo


def user_uniforms(seed: int, user_ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Every user's first ``counts[i]`` uniforms, concatenated in user order.

    Bit-identical to concatenating ``user_rng(seed, uid).random(count)``
    over ``zip(user_ids, counts)``; every user's seed state for the
    chunk comes from one array pass (see :func:`_pcg64_seed_states`).
    Users with a zero count contribute nothing.  User ids must lie in
    ``[0, 2**32)`` (one spawn-key word) and ``seed`` must be
    non-negative; anything else raises ``ValueError``.
    """
    user_ids = np.asarray(user_ids, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if user_ids.shape != counts.shape or user_ids.ndim != 1:
        raise ValueError(
            f"user_ids {user_ids.shape} and counts {counts.shape} must be "
            "equal-length 1-d arrays"
        )
    if len(user_ids) and (user_ids.min() < 0 or user_ids.max() > _MASK32):
        raise ValueError("user ids must lie in [0, 2**32)")
    if len(counts) and counts.min() < 0:
        raise ValueError("counts must be non-negative")
    active = counts > 0
    state_hi, state_lo, inc_hi, inc_lo = _pcg64_seed_states(
        seed, user_ids[active]
    )
    bitgen = np.random.PCG64(0)
    words: Dict[str, int] = {"state": 0, "inc": 0}
    state = {
        "bit_generator": "PCG64",
        "state": words,
        "has_uint32": 0,
        "uinteger": 0,
    }
    raws = [np.empty(0, dtype=np.uint64)]
    for s_hi, s_lo, i_hi, i_lo, count in zip(
        state_hi.tolist(),
        state_lo.tolist(),
        inc_hi.tolist(),
        inc_lo.tolist(),
        counts[active].tolist(),
    ):
        words["state"] = (s_hi << 64) | s_lo
        words["inc"] = (i_hi << 64) | i_lo
        bitgen.state = state
        raws.append(bitgen.random_raw(count))
    return (np.concatenate(raws) >> _DOUBLE_SHIFT) * _DOUBLE_SCALE


def split_user_blocks(
    buf: np.ndarray, sizes: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Split a per-user buffer into its parts, each concatenated over users.

    ``buf`` holds, user after user, ``sizes[0][u]`` values of part 0,
    then ``sizes[1][u]`` of part 1, and so on (the layout
    :func:`user_uniforms` returns when a user's count is the sum of its
    part sizes).  Part ``p`` of the result lists every user's part-``p``
    values in user order.
    """
    parts = [np.asarray(s, dtype=np.int64) for s in sizes]
    per_user = np.sum(parts, axis=0)
    block_start = np.cumsum(per_user) - per_user
    out = []
    for size in parts:
        part_start = np.cumsum(size) - size
        idx = np.arange(int(size.sum()), dtype=np.int64)
        idx += np.repeat(block_start - part_start, size)
        out.append(buf[idx])
        block_start = block_start + size
    return out


def pin_candidates_population(
    top_xs: np.ndarray,
    top_ys: np.ndarray,
    top_offsets: np.ndarray,
    sigma: float,
    n: int,
    seed: int,
    user_ids: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pin every user's top-location candidate sets in one array pass.

    ``(top_xs, top_ys, top_offsets)`` is the CSR bundle of eta-frequent
    locations (user ``i`` owns rows ``top_offsets[i]:top_offsets[i+1]``).
    Returns the ``(total_tops, n, 2)`` candidate tensor, bit-identical to
    calling ``NFoldGaussianMechanism.obfuscate_batch`` per user with the
    user's spawned rng: the same uniforms feed the same elementwise
    transforms, only batched across users.

    ``user_ids`` supplies the *global* user ids for the rng spawn keys
    when the shard is a chunk of a larger population (defaults to
    ``0..n_users-1``).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    top_offsets = np.asarray(top_offsets, dtype=np.int64)
    n_users = len(top_offsets) - 1
    if user_ids is None:
        user_ids = np.arange(n_users, dtype=np.int64)
    if len(user_ids) != n_users:
        raise ValueError(
            f"user_ids has {len(user_ids)} entries for {n_users} users"
        )
    draws = np.diff(top_offsets) * n
    # ``uniform(0, high)`` is exactly ``high * next_double`` (and
    # ``uniform(0, 1)`` the double itself), so one read per user split
    # theta-then-s reproduces the reference's call pair bit for bit;
    # theta's scale factor is applied batched.
    theta, s = split_user_blocks(
        user_uniforms(seed, user_ids, 2 * draws), (draws, draws)
    )
    theta *= _TWO_PI

    noise = polar_to_cartesian(rayleigh_radius_from_uniform(s, sigma), theta)
    tops = np.column_stack([top_xs, top_ys])
    return tops[:, None, :] + noise.reshape(-1, n, 2)
