"""Deterministic randomness: keyed substreams and pair-indexed uniforms.

Two mechanisms, both derived from a single 64-bit master seed:

* ``substream(seed, *path)`` gives a counter-based generator (Philox) keyed by
  the master seed and an integer path such as (replicate, purpose).  Replicates
  are therefore independent of execution order and thread schedule.
  Per-replicate sampling builds none: ``ppp.sample_ppp`` rekeys its thread's
  one Philox to the state ``substream(seed)`` starts in, so ``substream``
  itself is left to ``models.validate_framework`` and the tests.
* ``pair_uniforms(seed, i, j)`` maps an unordered index pair to a uniform in
  (0, 1) through a splitmix-style hash chain.  The value depends only on
  (seed, min(i,j), max(i,j)), which is what makes thinning couplings exact:
  a retained pair sees the same uniform in both graphs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _finalize(x: np.ndarray) -> None:
    """splitmix64 finalizer, in place on a uint64 buffer: full avalanche of each word.

    The caller owns ``x`` and silences overflow, which is the intended wrap.
    """
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)


def _absorb(state: np.ndarray, word) -> None:
    """Fold one word (or a broadcastable word array) into ``state`` in place."""
    state += np.uint64(_GOLDEN)
    state ^= word
    _finalize(state)


def _as_words(part) -> list[int]:
    """Encode one path element (int or short str tag) as 64-bit words."""
    if isinstance(part, str):
        raw = part.encode("utf-8")
        words = [len(raw)]
        for k in range(0, len(raw), 8):
            words.append(int.from_bytes(raw[k : k + 8], "little"))
        return words
    return [int(part) & _MASK64]


def _finalize_int(x: int) -> int:
    """The splitmix64 finalizer of ``_finalize`` on one Python int in [0, 2**64)."""
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def mix(seed: int, *path) -> int:
    """Collapse (seed, path...) into one well-mixed 64-bit key.

    Path elements are integers or short string tags naming the purpose.
    Computed in pure Python integers, masked to 64 bits after every step, so
    the result is bit-identical to the uint64 splitmix chain (``_uniforms``)
    that ``pair_uniforms`` runs on arrays.
    """
    state = _finalize_int(int(seed) & _MASK64)
    for part in path:
        for word in _as_words(part):
            state = _finalize_int(((state + _GOLDEN) & _MASK64) ^ word)
    return state


def substream(seed: int, *path) -> np.random.Generator:
    """Counter-based generator keyed by (seed, path...)."""
    return np.random.Generator(np.random.Philox(key=mix(seed, *path)))


def _keys(seed):
    """mix(seed) + _GOLDEN, the first absorb's addend: a uint64 scalar, or an array for an array of seeds."""
    seeds = np.asarray(seed)
    if seeds.ndim == 0:
        return np.uint64((mix(seed) + _GOLDEN) & _MASK64)
    if not np.issubdtype(seeds.dtype, np.integer):  # a float seed has already lost its low bits
        raise ConfigurationError(f"a seed array needs an integer dtype, got {seeds.dtype}")
    # mix(s) without a path is the finalizer of s mod 2**64; astype wraps a negative int64 to that residue
    keys = seeds.astype(np.uint64)
    _finalize(keys)
    keys += np.uint64(_GOLDEN)
    return keys


def _uniforms(seed, first, *rest) -> np.ndarray:
    """mix(seed) with each word absorbed in turn, as uniforms in (0, 1); the words broadcast with seed."""
    with np.errstate(over="ignore"):
        # the first absorb makes the buffer that the rest of the chain updates in place
        state = first ^ _keys(seed)
        scalar = state.ndim == 0
        state = np.atleast_1d(state)
        _finalize(state)
        for word in rest:
            _absorb(state, word)
        state >>= np.uint64(11)
    # 53-bit mantissa, offset half a ulp so the value is strictly inside (0,1)
    out = state.astype(np.float64)
    out += 0.5
    out *= 2.0**-53
    return out[0] if scalar else out


def pair_uniforms(seed, i, j) -> np.ndarray:
    """Uniform(0,1) variates indexed by unordered pairs of point ids.

    ``i`` and ``j`` may be arrays; the result is elementwise and symmetric
    under swapping i and j.  ``seed`` is an int or an integer-dtype array
    that broadcasts against them, one seed per pair; a seed array of any
    other dtype raises ConfigurationError.
    """
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    return _uniforms(seed, np.minimum(i, j), np.maximum(i, j))


def point_uniforms(seed: int, ids) -> np.ndarray:
    """Uniform(0,1) variates indexed by single point ids (used for thinning)."""
    return _uniforms(seed, np.asarray(ids, dtype=np.uint64))
