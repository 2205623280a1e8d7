"""Counter-based random numbers for reproducible parallel Monte Carlo.

Every standard normal draw is a pure function of the tuple
(master_seed, path_index, step_index, coordinate): a chained SplitMix64
finalizer turns the tuple into a 64-bit word, the top 53 bits become a
uniform in (0, 1), and the inverse normal CDF maps it to a Gaussian.
Draws are therefore independent of batch size, evaluation order and worker
count.

A path stream (``path_states``) draws the normals of a fixed batch of B
paths in blocks of K consecutive step indices. The chain's first two links
depend only on (master_seed, path_index), so ``_BatchStream`` computes them
once per batch; a refill runs the last two links, the uniform map and the
inverse CDF over a whole block, in place on two (K, d, B) buffers it keeps.
K = max(1, 2**16 // (B d)), capped by the step indices the stream will be
asked for: 4 for 16384 one-dimensional paths, 1 for 16384 paths in three
dimensions. The buffers hold 2 K B d 8-byte words, at most 1 MiB when
K > 1. Each numpy call then covers up to 2**16 words instead of B d, so a
stream makes 1/K of the calls, and the threads of a worker pool, which take
turns at the interpreter lock for every call, hand it over less often. The
words, and so the draws, are the same as ``normals`` computes from the
four keys (seed, path, step, coordinate), whatever block a step falls in.
A draw is the (B, d) transpose of a step's (d, B) slice: coordinate-major.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
from scipy.special import ndtri

__all__ = ["ArgumentError", "SeedSpec", "check_count", "check_horizon",
           "check_seed", "normals"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
#: words in a stream's block: 4 steps of a 16384-path batch in one dimension
_BLOCK_WORDS = 2**16


class ArgumentError(ValueError):
    """An argument a library function refuses before it does any work."""


def check_count(name, value, least=1) -> None:
    """A count is a Python or numpy integer, not a bool, and >= least."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        what = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ArgumentError(f"{name} must be {what}, not {value!r}")


def check_seed(value, name="master_seed") -> None:
    """A master seed is an integer, not a bool, that a uint64 holds."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or not 0 <= value < 2**64):
        raise ArgumentError(f"{name} must be an integer with 0 <= seed "
                            f"< 2**64, not {value!r}")


def check_horizon(T) -> float:
    """A horizon is a finite real number > 0, not a bool; returned as float."""
    if isinstance(T, bool) or not isinstance(T, Real) or not 0 < T < np.inf:
        raise ArgumentError(f"horizon must be positive and finite, not {T!r}")
    return float(T)


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one reproducible path stream."""

    master_seed: int
    path_index: int = 0

    def __post_init__(self):
        check_seed(self.master_seed)
        check_count("path_index", self.path_index, 0)


def _mix_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """The SplitMix64 finalizer of the uint64 array ``z``, written back into
    ``z``; ``tmp`` is scratch of its shape."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def _mix(z) -> np.ndarray:
    z = np.array(z, dtype=np.uint64)
    _mix_inplace(z, np.empty_like(z))
    return z


def _path_keys(master_seed, path_index) -> np.ndarray:
    """The first two links of the chain: a word per path, broadcastable."""
    check_seed(master_seed)
    with np.errstate(over="ignore"):
        z = _mix(np.uint64(master_seed) + _GOLDEN)
        return _mix(z + _GOLDEN * (np.asarray(path_index, dtype=np.uint64)
                                   + np.uint64(1)))


def _counter_words(master_seed, path_index, step_index, coord) -> np.ndarray:
    """Chained SplitMix64 over the four key components (broadcasting)."""
    with np.errstate(over="ignore"):
        z = _path_keys(master_seed, path_index)
        z = _mix(z + _GOLDEN * (np.asarray(step_index, dtype=np.uint64) + np.uint64(1)))
        z = _mix(z + _GOLDEN * (np.asarray(coord, dtype=np.uint64) + np.uint64(1)))
    return z


def uniforms(master_seed, path_index, step_index, coord) -> np.ndarray:
    """Uniforms on the open interval (0, 1), one per broadcast key tuple."""
    w = _counter_words(master_seed, path_index, step_index, coord)
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * _U53


def normals(master_seed, path_index, step_index, d: int,
            _stream=None) -> np.ndarray:
    """Standard normal block of shape broadcast(path_index, step_index) x d.

    ``path_index`` and ``step_index`` may be scalars or arrays; the coordinate
    axis is appended last. ``_stream`` is internal to ``path_states``: a
    ``_BatchStream`` made from this ``master_seed`` and ``path_index``
    (which are then not read again), returning the same normals for a
    scalar ``step_index`` as a view of its own buffer.
    """
    if _stream is not None:
        if _stream.d != d or np.ndim(step_index) != 0:
            raise ArgumentError("a stream draws its own width d at a "
                                "scalar step_index")
        return _stream.draw(step_index)
    path_index = np.asarray(path_index, dtype=np.uint64)
    step_index = np.asarray(step_index, dtype=np.uint64)
    shape = np.broadcast_shapes(path_index.shape, step_index.shape) + (d,)
    coords = np.arange(d, dtype=np.uint64)
    u = uniforms(
        master_seed,
        path_index[..., None],
        step_index[..., None],
        coords,
    )
    return ndtri(np.broadcast_to(u, shape))


class _BatchStream:
    """The normals of one batch of paths, drawn a block of steps at a time.

    Holds the batch's path keys, computed once, and the buffers of a block
    of K consecutive step indices: a (K, d, B) word buffer and a (K, d, B)
    float buffer. K is the most steps whose words fit in _BLOCK_WORDS, at
    least 1 and at most ``steps``, the count of step indices 0 .. steps - 1
    the caller will draw. ``draw`` returns a view, the (B, d) transpose of
    the step's (d, B) slice of the float buffer; a step outside the block
    refills it from that step, which overwrites every slice drawn before.
    """

    def __init__(self, master_seed, path_index, d: int, steps: int):
        self._keys = np.reshape(_path_keys(master_seed, path_index), (1, -1))
        B = self._keys.shape[1]
        self.d = d
        self._steps = steps
        K = max(1, min(_BLOCK_WORDS // (B * d), steps))
        self._coords = _GOLDEN * (np.arange(d, dtype=np.uint64)
                                  + np.uint64(1))[:, None]
        self._words = np.empty((K, d, B), dtype=np.uint64)
        self._out = np.empty((K, d, B))
        # the block holds step indices first .. first + count - 1
        self._first = self._count = 0

    def draw(self, step_index: int) -> np.ndarray:
        i = step_index - self._first
        if not 0 <= i < self._count:
            self._fill(int(step_index))
            i = 0
        return self._out[i].T

    def _fill(self, first: int) -> None:
        K, d, B = self._out.shape
        k = max(1, min(K, self._steps - first))
        w, out = self._words[:k], self._out[:k]
        # The float buffer is free until the uniforms are written, so it
        # doubles as word scratch; the step links run on contiguous
        # (k, 1, B) rows made of the first k B words of each buffer.
        col = self._out.view(np.uint64).reshape(-1)[:k * B].reshape(k, 1, B)
        tmp = self._words.reshape(-1)[:k * B].reshape(k, 1, B)
        with np.errstate(over="ignore"):
            step_words = _GOLDEN * (np.uint64(first)
                                    + np.arange(1, k + 1, dtype=np.uint64))
        np.add(self._keys, step_words[:, None, None], out=col)
        _mix_inplace(col, tmp)
        np.add(col, self._coords, out=w)
        _mix_inplace(w, out.view(np.uint64))
        # uniforms() and the inverse CDF, in place
        np.right_shift(w, np.uint64(11), out=w)
        out[...] = w
        out += 0.5
        out *= _U53
        ndtri(out, out=out)
        self._first, self._count = first, k
