"""Low-rank factorization of the steering matrix and the factor file format.

The complex steering matrix splits into W = W_R + j*W_I with both parts
real. Each part is compressed offline by a truncated SVD,

    W_a ~= U_a @ T_a,   T_a = S_a @ V_a^T   (a in {R, I})

keeping the smallest rank K_a whose retained singular energy reaches
(1 - delta) times ||W_a||_F^2. The online estimator then needs only two
skinny real matrix products per frame instead of one complex Q x (N/2+1)
product.

On the symmetric angle grid row Q-1-q of W is the conjugate of row q, so
W_R's rows mirror and W_I's mirror with a sign; each SVD then runs on the
ceil(Q/2) folded rows only, and U is unfolded from them.

``factorize`` runs on one BLAS thread and restores the caller's count after:
on a folded part of ~91 x 257 the hand-offs between OpenBLAS threads cost
more than they save. The per-frame products of the estimators keep the
library default. Where numpy's BLAS is not OpenBLAS the count is left alone.
"""
from __future__ import annotations

import ctypes
import operator
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np

from .core import SteeringMatrix
from .errors import DimensionError, FormatError, NumericalError

MAGIC = b"GPHAT-SVD\x00"
VERSION = 1
HEADER = struct.Struct("<5Id")  # after MAGIC: version, Q, N, K_R, K_I, delta
RECON_SLACK = 1e-9  # absolute slack over delta for rounding in reconstruction checks

# name patterns of OpenBLAS's thread-count calls, as numpy's wheels and distributions link it
_OPENBLAS_PREFIXES = ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}")
_BLAS_SCOPE = threading.Lock()


@dataclass(frozen=True)
class LowRankFactors:
    """Truncated factors of the split steering matrix.

    ``operator`` is derived from them on first read: the stacked real pair
    (U, T_il) of the low-rank curve U_R (T_R Re X12) - U_I (T_I Im X12).
    U = [U_R, -U_I] is Q x (K_R+K_I). T_il is (K_R+K_I) x 2(N/2+1) and acts on
    the interleaved (re, im) float64 view of X12: its first K_R rows hold T_R on
    the even columns, its last K_I rows hold T_I on the odd columns.
    """

    u_r: np.ndarray  # Q x K_R
    t_r: np.ndarray  # K_R x (N/2+1)
    u_i: np.ndarray  # Q x K_I
    t_i: np.ndarray  # K_I x (N/2+1)
    k_r: int
    k_i: int
    delta: float
    # (||U_a T_a - W_a||_F^2, ||W_a||_F^2) for a in {R, I} from factorize's bound check, else None
    sums: tuple | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, attr in (("K_R", "k_r"), ("K_I", "k_i")):  # as int: struct and np.zeros refuse floats
            try:
                object.__setattr__(self, attr, operator.index(getattr(self, attr)))
            except TypeError:
                raise DimensionError(f"{name} must be an integer, got {getattr(self, attr)!r}") from None
        shapes = [m.shape for m in (self.u_r, self.t_r, self.u_i, self.t_i)]
        q, bins = self.u_r.shape[:1], self.t_r.shape[-1:]
        expected = [(*q, self.k_r), (self.k_r, *bins), (*q, self.k_i), (self.k_i, *bins)]
        if shapes != expected:
            raise DimensionError(f"factor shapes {shapes} do not match "
                                 f"K_R={self.k_r}, K_I={self.k_i}: expected {expected}")

    @cached_property
    def operator(self) -> tuple[np.ndarray, np.ndarray]:
        t_il = np.zeros((self.k_r + self.k_i, 2 * self.t_r.shape[1]))
        t_il[:self.k_r, 0::2] = self.t_r
        t_il[self.k_r:, 1::2] = self.t_i
        return np.concatenate((self.u_r, -self.u_i), axis=1), t_il

    def measured_ratios(self) -> tuple[float, float]:
        """reconstruction_ratios against factorize's W, from the sums it checked: the same bits."""
        if self.sums is None:
            raise ValueError("these factors were not built by factorize; use reconstruction_ratios")
        return tuple(float(np.float64(err) / fro) for err, fro in self.sums)


def split_steering(w: SteeringMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of W as contiguous real matrices."""
    return np.ascontiguousarray(w.entries.real), np.ascontiguousarray(w.entries.imag)


def select_rank(singular_values: np.ndarray, frobenius_sq: float, delta: float) -> int:
    """Smallest K whose leading singular energy reaches (1 - delta) * ||W_a||_F^2."""
    s = np.asarray(singular_values, dtype=np.float64)
    if s.size == 0:
        raise DimensionError("empty singular value spectrum")
    cum = np.cumsum(s * s)
    target = (1.0 - delta) * frobenius_sq
    k = int(np.searchsorted(cum, target, side="left")) + 1
    return min(k, s.size)


def _factor_part(w_part: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray, int, tuple]:
    # rows that mirror exactly (W_R) or with a sign (W_I on a symmetric grid) are
    # folded: the SVD of [sqrt(2) top; middle] has the same singular values and
    # right vectors, and U unfolds to [top / sqrt(2); middle; sign * top[::-1] / sqrt(2)].
    # A part with no mirrored rows folds nothing (h = 0).
    q = w_part.shape[0]
    sign = 1.0 if np.array_equal(w_part[::-1], w_part) else -1.0
    h = q // 2 if np.array_equal(w_part[::-1], sign * w_part) else 0
    folded = np.concatenate((np.sqrt(2.0) * w_part[:h], w_part[h:q - h]))
    try:
        u, s, vt = np.linalg.svd(folded, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {w_part.shape} steering part: {exc}") from exc
    fro_sq = float(np.sum(w_part * w_part))
    k = select_rank(s, fro_sq, delta)
    top = u[:h, :k] / np.sqrt(2.0)
    u_k = np.concatenate((top, u[h:, :k], sign * top[::-1]))
    t_k = np.ascontiguousarray(s[:k, None] * vt[:k])
    err_sq = float(np.sum(np.square(u_k @ t_k - w_part)))
    if not err_sq <= delta * fro_sq + RECON_SLACK:  # NaN fails too
        raise NumericalError(
            f"reconstruction error {err_sq:.3e} exceeds delta * ||W||_F^2 = {delta * fro_sq:.3e}")
    return u_k, t_k, k, (err_sq, fro_sq)


@lru_cache(maxsize=1)
def _openblas_threads():
    """(get_num_threads, set_num_threads) of the OpenBLAS numpy linked, or None.

    dlsym on numpy's own LAPACK module also searches the libraries it links.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in _OPENBLAS_PREFIXES:
        get = getattr(lib, prefix.format("get_num_threads"), None)
        set_ = getattr(lib, prefix.format("set_num_threads"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the count read on entry.

    The lock keeps a concurrent scope from reading this one's 1 and restoring it.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _BLAS_SCOPE:
        before = get()
        set_(1)
        try:
            yield
        finally:
            set_(before)


def factorize(w: SteeringMatrix, delta: float) -> LowRankFactors:
    """Truncated SVD factors of both parts of the steering matrix, on one BLAS thread."""
    w_r, w_i = split_steering(w)
    with _one_blas_thread():
        u_r, t_r, k_r, sums_r = _factor_part(w_r, delta)
        u_i, t_i, k_i, sums_i = _factor_part(w_i, delta)
    factors = LowRankFactors(u_r=u_r, t_r=t_r, u_i=u_i, t_i=t_i, k_r=k_r, k_i=k_i, delta=delta)
    object.__setattr__(factors, "sums", (sums_r, sums_i))
    return factors


def reconstruction_ratios(factors: LowRankFactors, w: SteeringMatrix) -> tuple[float, float]:
    """||U_a T_a - W_a||_F^2 / ||W_a||_F^2 for a in {R, I}; factors of another
    Q x (N/2+1) than W's raise DimensionError."""
    size = (factors.u_r.shape[0], factors.t_r.shape[1])
    if size != w.entries.shape:
        raise DimensionError(f"factors are {size[0]} x {size[1]}, "
                             f"the steering matrix is {w.entries.shape[0]} x {w.entries.shape[1]}")
    w_r, w_i = split_steering(w)
    rr = float(np.sum(np.square(factors.u_r @ factors.t_r - w_r)) / np.sum(w_r * w_r))
    ri = float(np.sum(np.square(factors.u_i @ factors.t_i - w_i)) / np.sum(w_i * w_i))
    return rr, ri


def save_factors(factors: LowRankFactors, destination) -> None:
    """Write factors in the GPHAT-SVD binary format (little-endian, f8)."""
    q, half_bins = factors.u_r.shape[0], factors.t_r.shape[1]
    header = MAGIC + HEADER.pack(VERSION, q, 2 * (half_bins - 1), factors.k_r, factors.k_i, factors.delta)
    with open(destination, "wb") as fh:
        fh.write(header)
        for m in (factors.u_r, factors.t_r, factors.u_i, factors.t_i):
            fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_factors(source) -> LowRankFactors:
    """Read a GPHAT-SVD factor file; round-trips save_factors bit-exactly."""
    raw = Path(source).read_bytes()
    head_len = len(MAGIC) + HEADER.size
    if len(raw) < head_len:
        raise FormatError(f"file too short for a factor header ({len(raw)} bytes)")
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic: not a GPHAT-SVD factor file")
    version, q, n, k_r, k_i, delta = HEADER.unpack_from(raw, len(MAGIC))
    if version != VERSION:
        raise FormatError(f"unsupported version {version} (expected {VERSION})")
    if n < 4 or n % 2 != 0:
        raise FormatError(f"invalid frame size n={n}")
    half_bins = n // 2 + 1
    limit = min(q, half_bins)
    for name, k in (("K_R", k_r), ("K_I", k_i)):
        if not 1 <= k <= limit:
            raise FormatError(f"{name}={k} outside [1, min(Q, N/2+1)] = [1, {limit}]")
    if not 0.0 < delta < 1.0:  # False for NaN as well
        raise FormatError(f"delta={delta} outside (0, 1)")
    shapes = [(q, k_r), (k_r, half_bins), (q, k_i), (k_i, half_bins)]
    ends = list(accumulate((r * c for r, c in shapes), initial=0))
    if len(raw) != head_len + 8 * ends[-1]:
        raise FormatError(f"matrix payload is {len(raw) - head_len} bytes, expected {8 * ends[-1]}")
    payload = np.frombuffer(raw, dtype="<f8", offset=head_len).astype(np.float64)
    if not np.isfinite(payload).all():
        raise FormatError("matrix payload holds a non-finite entry (NaN or inf)")
    u_r, t_r, u_i, t_i = (payload[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes))
    return LowRankFactors(u_r=u_r, t_r=t_r, u_i=u_i, t_i=t_i, k_r=k_r, k_i=k_i, delta=delta)
