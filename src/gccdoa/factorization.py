"""Low-rank factorization of the steering matrix and the factor file format.

The complex steering matrix splits into W = W_R + j*W_I with both parts
real. Each part is compressed offline by a truncated SVD,

    W_a ~= U_a @ T_a,   T_a = S_a @ V_a^T   (a in {R, I})

keeping the smallest rank K_a whose retained singular energy reaches
(1 - delta) times ||W_a||_F^2. The online estimator then needs only two
skinny real matrix products per frame instead of one complex Q x (N/2+1)
product.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import SteeringMatrix
from .errors import DimensionError, FormatError, NumericalError

MAGIC = b"GPHAT-SVD\x00"
VERSION = 1
RECON_SLACK = 1e-9  # absolute slack over delta for rounding in reconstruction checks


@dataclass(frozen=True)
class LowRankFactors:
    """Truncated factors of the split steering matrix."""

    u_r: np.ndarray  # Q x K_R
    t_r: np.ndarray  # K_R x (N/2+1)
    u_i: np.ndarray  # Q x K_I
    t_i: np.ndarray  # K_I x (N/2+1)
    k_r: int
    k_i: int
    delta: float


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


def _factor_part(w_part: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray, int]:
    try:
        u, s, vt = np.linalg.svd(w_part, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed on a {w_part.shape} steering part: {exc}") from exc
    fro_sq = float(np.sum(w_part * w_part))
    k = select_rank(s, fro_sq, delta)
    cum = np.cumsum(s * s)
    if k > 1 and cum[k - 2] >= (1.0 - delta) * fro_sq:
        raise NumericalError(f"rank {k} is not minimal for delta={delta}")
    u_k = np.ascontiguousarray(u[:, :k])
    t_k = np.ascontiguousarray(s[:k, None] * vt[:k])
    err_sq = float(np.sum(np.square(u_k @ t_k - w_part)))
    if err_sq > delta * fro_sq + RECON_SLACK:
        raise NumericalError(
            f"reconstruction error {err_sq:.3e} exceeds delta * ||W||_F^2 = {delta * fro_sq:.3e}")
    return u_k, t_k, k


def factorize(w: SteeringMatrix, delta: float) -> LowRankFactors:
    """Truncated SVD factors of both parts of the steering matrix."""
    w_r, w_i = split_steering(w)
    u_r, t_r, k_r = _factor_part(w_r, delta)
    u_i, t_i, k_i = _factor_part(w_i, delta)
    return LowRankFactors(u_r=u_r, t_r=t_r, u_i=u_i, t_i=t_i, k_r=k_r, k_i=k_i, delta=delta)


def reconstruction_ratios(factors: LowRankFactors, w: SteeringMatrix) -> tuple[float, float]:
    """||U_a T_a - W_a||_F^2 / ||W_a||_F^2 for a in {R, I}."""
    w_r, w_i = split_steering(w)
    rr = float(np.sum(np.square(factors.u_r @ factors.t_r - w_r)) / np.sum(w_r * w_r))
    ri = float(np.sum(np.square(factors.u_i @ factors.t_i - w_i)) / np.sum(w_i * w_i))
    return rr, ri


def save_factors(factors: LowRankFactors, destination) -> None:
    """Write factors in the GPHAT-SVD binary format (little-endian, f8)."""
    q = factors.u_r.shape[0]
    half_bins = factors.t_r.shape[1]
    n = 2 * (half_bins - 1)
    header = MAGIC + struct.pack("<IIIII", VERSION, q, n, factors.k_r, factors.k_i)
    header += struct.pack("<d", factors.delta)
    with open(destination, "wb") as fh:
        fh.write(header)
        for m in (factors.u_r, factors.t_r, factors.u_i, factors.t_i):
            fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def load_factors(source) -> LowRankFactors:
    """Read a GPHAT-SVD factor file; round-trips save_factors bit-exactly."""
    raw = Path(source).read_bytes()
    head_len = len(MAGIC) + 5 * 4 + 8
    if len(raw) < head_len:
        raise FormatError(f"file too short for a factor header ({len(raw)} bytes)")
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic: not a GPHAT-SVD factor file")
    version, q, n, k_r, k_i = struct.unpack_from("<IIIII", raw, len(MAGIC))
    if version != VERSION:
        raise FormatError(f"unsupported version {version} (expected {VERSION})")
    if n < 4 or n % 2 != 0:
        raise FormatError(f"invalid frame size n={n}")
    half_bins = n // 2 + 1
    limit = min(q, half_bins)
    for name, k in (("K_R", k_r), ("K_I", k_i)):
        if not 1 <= k <= limit:
            raise FormatError(f"{name}={k} outside [1, min(Q, N/2+1)] = [1, {limit}]")
    (delta,) = struct.unpack_from("<d", raw, len(MAGIC) + 20)
    shapes = [(q, k_r), (k_r, half_bins), (q, k_i), (k_i, half_bins)]
    expected = head_len + 8 * sum(r * c for r, c in shapes)
    if len(raw) != expected:
        raise FormatError(f"matrix payload is {len(raw) - head_len} bytes, expected {expected - head_len}")
    mats = []
    offset = head_len
    for r, c in shapes:
        count = r * c
        mats.append(np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(r, c))
        offset += 8 * count
    u_r, t_r, u_i, t_i = (m.astype(np.float64) for m in mats)
    return LowRankFactors(u_r=u_r, t_r=t_r, u_i=u_i, t_i=t_i, k_r=k_r, k_i=k_i, delta=delta)
