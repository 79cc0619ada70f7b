"""Steering split, rank selection, factor invariants, and the file format."""
import struct
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gccdoa import factorization
from gccdoa.core import GccParams, steering_matrix, theta_grid
from gccdoa.errors import DimensionError, FormatError, NumericalError
from gccdoa.estimators import mm_correlate, svd_correlate
from gccdoa.factorization import (MAGIC, LowRankFactors, factorize,
                                  load_factors, reconstruction_ratios,
                                  save_factors, select_rank, split_steering)

TABLE = GccParams()
GRID = theta_grid(TABLE)
W = steering_matrix(TABLE, GRID)

# reference ranks recorded from this implementation at the default parameters
REFERENCE_RANKS = (5, 4)


class TestSplitSteering:
    def test_recombines_exactly(self):
        w_r, w_i = split_steering(W)
        assert np.array_equal(w_r + 1j * w_i, W.entries)

    def test_pythagorean_identity(self):
        w_r, w_i = split_steering(W)
        assert w_r**2 + w_i**2 == pytest.approx(
            np.broadcast_to(W.gains**2, w_r.shape), abs=1e-15)

    def test_zero_tau_row(self):
        w_r, w_i = split_steering(W)
        assert w_r[90] == pytest.approx(W.gains, abs=1e-15)
        assert w_i[90] == pytest.approx(np.zeros(257), abs=1e-15)


class TestSelectRank:
    def test_rank_one_spectrum(self):
        assert select_rank(np.array([2.0, 0.0, 0.0]), 4.0, 0.5) == 1
        assert select_rank(np.array([2.0, 0.0, 0.0]), 4.0, 1e-12) == 1

    def test_threshold_arithmetic(self):
        s = np.array([np.sqrt(3), 1.0])
        assert select_rank(s, 4.0, 0.3) == 1  # need 2.8, sigma1^2 = 3
        assert select_rank(s, 4.0, 0.2) == 2  # need 3.2 > 3

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(5)
        s = np.sort(rng.uniform(0, 3, 40))[::-1]
        fro = float(np.sum(s * s))
        ks = [select_rank(s, fro, d) for d in (1e-1, 1e-2, 1e-4, 1e-8, 1e-12)]
        assert ks == sorted(ks)
        assert all(1 <= k <= 40 for k in ks)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(s=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40),
           extra=st.floats(0.0, 1e6), delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_property_smallest_rank(self, s, extra, delta):
        """The smallest k whose leading energy reaches (1 - delta) * fro, or all of s."""
        s = np.array(s)
        cum = np.cumsum(s * s)
        fro = float(cum[-1]) + extra
        k = select_rank(s, fro, delta)
        assert 1 <= k <= s.size
        assert k == 1 or cum[k - 2] < (1.0 - delta) * fro
        assert k == s.size or cum[k - 1] >= (1.0 - delta) * fro

    def test_empty_spectrum_rejected(self):
        with pytest.raises(DimensionError):
            select_rank(np.array([]), 1.0, 0.5)


class TestFactorize:
    def test_reference_ranks_at_table_defaults(self):
        f = factorize(W, 1e-5)
        assert (f.k_r, f.k_i) == REFERENCE_RANKS
        # the whole point of the factorization: far fewer than min(Q, bins)/2
        assert f.k_r + f.k_i < min(TABLE.q, TABLE.half_bins) / 2

    def test_reconstruction_within_tolerance(self):
        for delta in (1e-2, 1e-5):
            f = factorize(W, delta)
            rr, ri = reconstruction_ratios(f, W)
            assert rr <= delta and ri <= delta

    @pytest.mark.parametrize("delta", [1e-2, 1e-5])
    def test_rank_minimality(self, delta):
        f = factorize(W, delta)
        w_r, w_i = split_steering(W)
        for part, k in ((w_r, f.k_r), (w_i, f.k_i)):
            s = np.linalg.svd(part, compute_uv=False)
            target = (1.0 - delta) * np.sum(part * part)
            assert np.sum(s[:k] ** 2) >= target
            if k > 1:
                assert np.sum(s[: k - 1] ** 2) < target

    def test_rank_grows_as_delta_shrinks(self):
        loose = factorize(W, 1e-2)
        tight = factorize(W, 1e-12)
        assert tight.k_r > loose.k_r and tight.k_i > loose.k_i

    def test_orthonormal_left_factors(self):
        f = factorize(W, 1e-5)
        for u in (f.u_r, f.u_i):
            assert u.T @ u == pytest.approx(np.eye(u.shape[1]), abs=1e-8)

    def test_single_row_matrix_is_rank_one(self):
        from gccdoa.core import SteeringMatrix
        one_row = SteeringMatrix(gains=W.gains, entries=W.entries[90:91])
        f = factorize(one_row, 0.5)
        assert f.k_r == 1 and f.k_i == 1

    def test_error_shrinks_with_delta_on_fixed_batch(self):
        rng = np.random.default_rng(6)
        batch = np.exp(1j * rng.uniform(0, 2 * np.pi, (20, 257)))
        prev = np.inf
        for delta in (1e-2, 1e-3, 1e-4, 1e-5):
            f = factorize(W, delta)
            err = max(np.abs(svd_correlate(f, x) - mm_correlate(W, x)).max() for x in batch)
            assert err <= prev + 1e-12
            prev = err

    def test_svd_failure_reported(self, monkeypatch):
        def boom(*a, **k):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError):
            factorize(W, 1e-5)


class TestFoldedFactorization:
    """Each SVD runs on the ceil(Q/2) folded rows of a mirrored part."""

    @staticmethod
    def spy_svd(monkeypatch):
        shapes, svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", spy)
        return shapes

    def test_left_factors_mirror_exactly(self):
        f = factorize(W, 1e-5)
        assert np.array_equal(f.u_r[::-1], f.u_r)
        assert np.array_equal(f.u_i[::-1], -f.u_i)

    @pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-12])
    def test_ranks_equal_those_of_the_full_svd(self, delta):
        f = factorize(W, delta)
        for part, k in zip(split_steering(W), (f.k_r, f.k_i)):
            s = np.linalg.svd(part, compute_uv=False)
            assert k == select_rank(s, float(np.sum(part * part)), delta)

    @pytest.mark.parametrize("q", [180, 181])
    def test_svd_sees_folded_rows(self, monkeypatch, q):
        p = GccParams(q=q)
        w = steering_matrix(p, theta_grid(p))
        shapes = self.spy_svd(monkeypatch)
        f = factorize(w, p.delta)
        assert shapes == [((q + 1) // 2, p.half_bins)] * 2
        assert f.u_r.shape[0] == f.u_i.shape[0] == q
        assert max(reconstruction_ratios(f, w)) <= p.delta

    def test_permuted_rows_get_full_svds(self, monkeypatch):
        from gccdoa.core import SteeringMatrix
        order = np.random.default_rng(14).permutation(TABLE.q)
        shuffled = SteeringMatrix(gains=W.gains, entries=W.entries[order])
        shapes = self.spy_svd(monkeypatch)
        f = factorize(shuffled, 1e-5)
        assert shapes == [W.entries.shape] * 2
        # a row permutation leaves the singular values, hence the ranks, alone
        assert (f.k_r, f.k_i) == REFERENCE_RANKS
        rr, ri = reconstruction_ratios(f, shuffled)
        assert rr <= 1e-5 and ri <= 1e-5


class TestMeasuredRatios:
    """factorize keeps the sums of its bound check, so nobody measures its factors twice."""

    @pytest.mark.parametrize("q", [180, 181])
    def test_equal_reconstruction_ratios_bit_for_bit(self, q):
        p = GccParams(q=q)
        w = steering_matrix(p, theta_grid(p))
        f = factorize(w, p.delta)
        assert np.array_equal(np.array(f.measured_ratios()).view(np.uint64),
                              np.array(reconstruction_ratios(f, w)).view(np.uint64))

    def test_loaded_factors_carry_none(self, tmp_path):
        path = tmp_path / "factors.gsvd"
        save_factors(factorize(W, 1e-5), path)
        with pytest.raises(ValueError):
            load_factors(path).measured_ratios()

    def test_broadside_row_factorizes_without_warning(self):
        import warnings
        from gccdoa.core import SteeringMatrix
        # one zero-phase row: W_I is all zero, so its ratio would be 0/0
        row = SteeringMatrix(gains=W.gains, entries=W.entries[90:91].copy())
        assert not row.entries.imag.any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = factorize(row, 1e-5)
        assert (f.k_r, f.k_i) == (1, 1)


class TestStackedOperator:
    """The (U, T_il) pair of the low-rank curve is built once per factor set."""

    def test_operator_layout(self):
        f = factorize(W, 1e-5)
        u, t_il = f.operator
        assert np.array_equal(u, np.concatenate((f.u_r, -f.u_i), axis=1))
        assert np.array_equal(t_il[:f.k_r, 0::2], f.t_r) and not t_il[:f.k_r, 1::2].any()
        assert np.array_equal(t_il[f.k_r:, 1::2], f.t_i) and not t_il[f.k_r:, 0::2].any()

    def test_operator_left_out_of_eq_and_repr(self):
        import dataclasses
        f = factorize(W, 1e-5)
        # the copy shares every array but builds its own operator
        assert dataclasses.replace(f) == f
        assert "operator" not in repr(f)

    def test_estimator_reads_the_factors_operator(self):
        from gccdoa.estimators import SvdEstimator
        f = factorize(W, 1e-5)
        est = SvdEstimator(TABLE, f)
        assert est._u is f.operator[0] and est._t_il is f.operator[1]


BLAS = factorization._openblas_threads()


@pytest.mark.skipif(BLAS is None, reason="numpy's BLAS exposes no OpenBLAS thread-count calls")
class TestOneBlasThread:
    """factorize runs on one OpenBLAS thread and gives the caller's count back."""

    @pytest.fixture(autouse=True)
    def count(self):
        get, set_ = BLAS
        before = get()
        yield before
        set_(before)

    @staticmethod
    def spy_counts(monkeypatch):
        counts, svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            counts.append(BLAS[0]())
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", spy)
        return counts

    def test_count_restored_after_factorize(self, count):
        get, set_ = BLAS
        # the library default, then a count set before the call
        for wanted in (count, 2 if count == 1 else 1):
            set_(wanted)
            factorize(W, 1e-5)
            assert get() == wanted

    def test_count_restored_after_svd_raises(self, monkeypatch, count):
        def boom(*a, **k):
            raise np.linalg.LinAlgError("did not converge")
        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(NumericalError):
            factorize(W, 1e-5)
        assert BLAS[0]() == count

    def test_svd_runs_on_one_thread(self, monkeypatch):
        counts = self.spy_counts(monkeypatch)
        factorize(W, 1e-5)
        assert counts == [1, 1]

    def test_concurrent_factorize_restores_the_count(self, monkeypatch, count):
        # more threads than a small host has cores, switching often
        threads, calls = 4, 5
        counts = self.spy_counts(monkeypatch)
        start, built = threading.Barrier(threads, timeout=60), []

        def run():
            start.wait()
            built.extend(factorize(W, 1e-5) for _ in range(calls))
        workers = [threading.Thread(target=run) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert len(built) == threads * calls and counts == [1] * (2 * threads * calls)
        assert BLAS[0]() == count

    def test_without_openblas_factors_are_the_same_bits(self, monkeypatch, count):
        scoped = factorize(W, TABLE.delta)
        monkeypatch.setattr(factorization, "_openblas_threads", lambda: None)
        counts = self.spy_counts(monkeypatch)
        plain = factorize(W, TABLE.delta)
        assert counts == [count, count]
        for name in ("u_r", "t_r", "u_i", "t_i"):
            assert np.array_equal(getattr(plain, name), getattr(scoped, name))
        assert plain.measured_ratios() == scoped.measured_ratios()


class TestFactorFile:
    def test_round_trip_is_bit_exact(self, tmp_path):
        f = factorize(W, 1e-5)
        path = tmp_path / "factors.gsvd"
        save_factors(f, path)
        g = load_factors(path)
        assert (g.k_r, g.k_i, g.delta) == (f.k_r, f.k_i, f.delta)
        for a, b in ((f.u_r, g.u_r), (f.t_r, g.t_r), (f.u_i, g.u_i), (f.t_i, g.t_i)):
            assert np.array_equal(a, b)

    def test_repeated_saves_identical(self, tmp_path):
        f = factorize(W, 1e-5)
        p1, p2 = tmp_path / "a.gsvd", tmp_path / "b.gsvd"
        save_factors(f, p1)
        save_factors(f, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        f = factorize(W, 1e-5)
        path = tmp_path / "factors.gsvd"
        save_factors(f, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_factors(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        f = factorize(W, 1e-5)
        path = tmp_path / "factors.gsvd"
        save_factors(f, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(FormatError):
            load_factors(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "factors.gsvd"
        path.write_bytes(b"NOT-A-FILE" + b"\x00" * 64)
        with pytest.raises(FormatError, match="magic"):
            load_factors(path)

    def test_bad_version_rejected(self, tmp_path):
        f = factorize(W, 1e-5)
        path = tmp_path / "factors.gsvd"
        save_factors(f, path)
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_factors(path)

    def test_oversized_rank_rejected(self, tmp_path):
        import struct
        # header claims K_R = Q + 7, which no valid factorization can produce
        q, n, k_r, k_i = 4, 8, 11, 1
        half = n // 2 + 1
        payload = b"\x00" * (8 * (q * k_r + k_r * half + q * k_i + k_i * half))
        blob = MAGIC + struct.pack("<IIIII", 1, q, n, k_r, k_i) + struct.pack("<d", 0.5) + payload
        path = tmp_path / "factors.gsvd"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="K_R"):
            load_factors(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_factors(tmp_path / "nonexistent.gsvd")

    @pytest.mark.parametrize("delta", [-1e-5, 0.0, 1.0, 3.5, np.inf, np.nan])
    def test_delta_outside_unit_interval_rejected(self, tmp_path, delta):
        path = tmp_path / "factors.gsvd"
        save_factors(factorize(W, 1e-5), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, len(MAGIC) + 20, delta)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="delta"):
            load_factors(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [0, -1])
    def test_non_finite_entry_rejected(self, tmp_path, value, entry):
        path = tmp_path / "factors.gsvd"
        save_factors(factorize(W, 1e-5), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, len(data) - 8 if entry else len(MAGIC) + 28, value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="non-finite"):
            load_factors(path)


# a small factor file keeps the corruption properties fast
SMALL = GccParams(q=7, n=8, hop=4, dist=0.01)


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """A valid factor file's bytes, and a path to write corrupted copies to."""
    path = tmp_path_factory.mktemp("corrupt") / "factors.gsvd"
    save_factors(factorize(steering_matrix(SMALL, theta_grid(SMALL)), 1e-5), path)
    return path.read_bytes(), path


class TestCorruptFactorFile:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_truncation_raises_format_error(self, small_file, data):
        raw, path = small_file
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(FormatError):
            load_factors(path)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bit_flip_raises_or_loads_sound_factors(self, small_file, data):
        raw, path = small_file
        flipped = bytearray(raw)
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            f = load_factors(path)
        except FormatError:
            return
        assert 0.0 < f.delta < 1.0
        for m in (f.u_r, f.t_r, f.u_i, f.t_i):
            assert np.isfinite(m).all()


def test_header_with_an_odd_frame_size_rejected(small_file, tmp_path):
    raw, _ = small_file
    data = bytearray(raw)
    struct.pack_into("<I", data, len(MAGIC) + 8, 511)
    path = tmp_path / "odd.gsvd"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="invalid frame size n=511"):
        load_factors(path)


def test_failed_reconstruction_check_raises_and_restores_the_thread_count(monkeypatch):
    """Singular values 1 % too large miss the delta bound; the BLAS count still comes back."""
    before = BLAS[0]() if BLAS is not None else None
    svd = np.linalg.svd

    def inflated(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        return u, 1.01 * s, vt
    monkeypatch.setattr(np.linalg, "svd", inflated)
    with pytest.raises(NumericalError, match="reconstruction error .* exceeds"):
        factorize(W, 1e-5)
    if BLAS is not None:
        assert BLAS[0]() == before


@pytest.mark.parametrize("change", [dict(k_r=7), dict(k_i=3), dict(t_i=np.zeros((4, 258)))])
def test_save_rejects_shapes_that_disagree_with_the_ranks(tmp_path, change):
    """K_R = 7 over a rank-5 T_R (or K_I = 3, or a T_I one bin wider than T_R) makes a
    header that load_factors would reject; nothing is written."""
    path = tmp_path / "bad.gsvd"
    with pytest.raises(DimensionError, match="do not match"):
        save_factors(replace(factorize(W, 1e-5), **change), path)
    assert not path.exists()


class TestFactorizeIsTheCheckOfWhatItBuilds:
    """SvdEstimator measures only supplied factors, so factorize's own bound must hold."""

    def test_nan_singular_values_raise(self, monkeypatch):
        real = np.linalg.svd

        def nan_singular_values(a, full_matrices=True):
            u, s, vt = real(a, full_matrices=full_matrices)
            return u, np.full_like(s, np.nan), vt
        monkeypatch.setattr(np.linalg, "svd", nan_singular_values)
        with pytest.raises(NumericalError, match="reconstruction error nan exceeds"):
            factorize(W, TABLE.delta)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(q=st.integers(2, 400), dist=st.floats(1e-4, 5.48))
    @example(q=400, dist=1e-4)
    @example(q=3, dist=1e-4)
    def test_measured_ratios_within_delta(self, q, dist):
        # at 1e-4 m ||W_I||_F^2 is ~1e-4, where factorize's absolute 1e-9 slack is
        # ~1e-5 of the ratio: only the rank choice keeps the ratio itself within delta
        p = GccParams(q=q, dist=dist)
        rr, ri = factorize(steering_matrix(p, theta_grid(p)), p.delta).measured_ratios()
        assert rr <= p.delta and ri <= p.delta


FACTORS = factorize(W, TABLE.delta)
_SHAPE_BREAKS = [dict(k_r=7), dict(k_i=3), dict(t_i=np.zeros((4, 258))), dict(u_i=np.zeros((181, 3))),
                 dict(t_r=np.zeros(257)), dict(u_r=np.zeros(181))]


@pytest.mark.parametrize("change", _SHAPE_BREAKS)
def test_mis_shaped_factors_cannot_be_built(change):
    """A factor set whose shapes disagree with K_R, K_I and one Q x (N/2+1) cannot be
    built, so svd_correlate and SvdEstimator never meet it with a numpy error."""
    from gccdoa.estimators import SvdEstimator
    with pytest.raises(DimensionError, match="do not match"):
        svd_correlate(replace(FACTORS, **change), np.ones(257, dtype=complex))
    with pytest.raises(DimensionError, match="do not match"):
        SvdEstimator(TABLE, replace(FACTORS, **change))


@pytest.mark.parametrize("params", [GccParams(q=91), GccParams(n=1024)])
def test_reconstruction_ratios_rejects_another_grid(params):
    w = steering_matrix(params, theta_grid(params))
    with pytest.raises(DimensionError, match=f"181 x 257, the steering matrix is "
                                             f"{params.q} x {params.half_bins}"):
        reconstruction_ratios(FACTORS, w)


def test_header_is_one_struct_of_the_saved_fields(tmp_path):
    path = tmp_path / "w.gsvd"
    save_factors(FACTORS, path)
    raw = path.read_bytes()
    assert factorization.HEADER.unpack_from(raw, len(MAGIC)) == (1, 181, 512, *REFERENCE_RANKS, 1e-5)
    assert len(raw) == len(MAGIC) + factorization.HEADER.size + 8 * (181 + 257) * sum(REFERENCE_RANKS)
