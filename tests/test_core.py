"""Grid, gains, and steering matrix: frozen values and exactness properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gccdoa.core import (AngularGrid, GccParams, normalization_gains,
                         steering_matrix, theta_grid)
from gccdoa.errors import ConfigurationError

TABLE = GccParams()


class TestGccParams:
    def test_defaults_are_valid(self):
        p = GccParams()
        assert (p.q, p.n, p.hop) == (181, 512, 160)
        assert (p.dist, p.speed, p.rate) == (0.05, 343.0, 16000)
        assert p.delta == 1e-5 and p.interp == 1
        assert p.half_bins == 257

    def test_max_lag_value(self):
        # 16000 * 0.05 / 343, written out independently
        assert TABLE.max_lag == pytest.approx(800.0 / 343.0, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(q=1), dict(n=511), dict(n=2), dict(hop=0), dict(hop=513),
        dict(dist=0.0), dict(dist=-1.0), dict(speed=0.0), dict(rate=0),
        dict(delta=0.0), dict(delta=1.0), dict(interp=3), dict(interp=0),
        dict(dist=6.0),  # max lag 279.9 samples >= n/2
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            GccParams(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["dist", "speed", "rate"])
    def test_non_finite_signal_chain_rejected(self, field, value):
        # NaN passes an `x <= 0` check, and an infinite speed makes every lag 0
        with pytest.raises(ConfigurationError, match="positive and finite"):
            GccParams(**{field: value})


class TestThetaGrid:
    def test_endpoints_and_center(self):
        g = theta_grid(TABLE)
        assert g.thetas[0] == pytest.approx(-np.pi / 2, abs=1e-15)
        assert g.thetas[-1] == pytest.approx(np.pi / 2, abs=1e-15)
        assert g.thetas[90] == 0.0
        assert g.taus[90] == 0.0

    def test_q3_grid(self):
        g = theta_grid(GccParams(q=3))
        assert g.thetas == pytest.approx([-np.pi / 2, 0.0, np.pi / 2], abs=1e-15)

    def test_uniform_spacing(self):
        g = theta_grid(TABLE)
        steps = np.diff(g.thetas)
        assert steps == pytest.approx(np.pi / 180, abs=1e-15)
        assert np.all(np.diff(g.taus) > 0)

    def test_max_tau_frozen_value(self):
        g = theta_grid(TABLE)
        assert g.taus[180] == pytest.approx(2.3323615160349855, rel=1e-14)
        assert g.taus[180] == pytest.approx(16000 * 0.05 / 343, rel=1e-14)

    def test_tau_odd_symmetry_is_exact(self):
        g = theta_grid(TABLE)
        assert np.array_equal(g.taus, -g.taus[::-1])
        assert np.array_equal(g.thetas, -g.thetas[::-1])

    # spacing up to just below the n/2 = 256-sample lag limit at the defaults (5.488 m)
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(q=st.integers(2, 4000), dist=st.floats(1e-4, 5.48))
    def test_symmetry_is_exact_for_random_grids(self, q, dist):
        g = theta_grid(GccParams(q=q, dist=dist))
        assert np.array_equal(g.thetas, -g.thetas[::-1])
        assert np.array_equal(g.taus, -g.taus[::-1])

    def test_arrays_are_immutable(self):
        g = theta_grid(TABLE)
        with pytest.raises(ValueError):
            g.taus[0] = 0.0


class TestNormalizationGains:
    def test_frozen_values_n512(self):
        g = normalization_gains(512)
        assert len(g) == 257
        assert g[0] == pytest.approx(0.04419417382415922, rel=1e-14)
        assert g[0] == g[-1]
        assert g[100] == 0.0625  # sqrt(2/512) = 1/16 exactly

    @pytest.mark.parametrize("n", [4, 8, 100, 512, 1024])
    def test_unit_energy(self, n):
        g = normalization_gains(n)
        assert np.sum(g * g) == pytest.approx(1.0, abs=1e-12)

    def test_gain_sum_frozen_value(self):
        # 2/sqrt(512) + 255/16 evaluated independently
        g = normalization_gains(512)
        assert np.sum(g) == pytest.approx(2 / np.sqrt(512) + 255 / 16, rel=1e-14)
        assert np.sum(g) == pytest.approx(16.025888347648318, rel=1e-14)

    @pytest.mark.parametrize("n", [5, 7, 2, 0, -4])
    def test_bad_sizes_rejected(self, n):
        with pytest.raises(ConfigurationError):
            normalization_gains(n)


class TestSteeringMatrix:
    def test_shape_and_row_norms(self):
        grid = theta_grid(TABLE)
        w = steering_matrix(TABLE, grid)
        assert w.entries.shape == (181, 257)
        norms = np.linalg.norm(w.entries, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_entry_magnitudes_equal_gains(self):
        w = steering_matrix(TABLE, theta_grid(TABLE))
        assert np.abs(w.entries) == pytest.approx(
            np.broadcast_to(w.gains, w.entries.shape), abs=1e-13)

    def test_zero_tau_row_is_real_gains(self):
        w = steering_matrix(TABLE, theta_grid(TABLE))
        assert w.entries[90] == pytest.approx(w.gains, abs=1e-15)

    def test_k0_column_carries_no_phase(self):
        w = steering_matrix(TABLE, theta_grid(TABLE))
        assert np.all(w.entries[:, 0] == w.gains[0])

    def test_conjugate_pair_rows(self):
        w = steering_matrix(TABLE, theta_grid(TABLE))
        assert np.array_equal(w.entries, np.conj(w.entries[::-1]))

    def test_grid_mismatch_rejected(self):
        small = theta_grid(GccParams(q=5))
        with pytest.raises(ConfigurationError):
            steering_matrix(TABLE, small)


def all_rows(params, grid):
    """Every row evaluated by the defining formula, mirrored or not."""
    k = np.arange(params.half_bins)
    return normalization_gains(params.n) * np.exp(
        1j * ((2.0 * np.pi / params.n) * np.outer(grid.taus, k)))


def assert_same_bits(a, b):
    # stricter than np.array_equal: a zero's sign counts too
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMirroredSteeringRows:
    """The rows mirrored from the first ceil(Q/2) are the ones the formula gives."""

    @pytest.mark.parametrize("q", [2, 3, 180, 181])
    def test_equals_all_rows_formula(self, q):
        p = GccParams(q=q)
        g = theta_grid(p)
        assert_same_bits(steering_matrix(p, g).entries, all_rows(p, g))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(q=st.integers(2, 2000), dist=st.floats(1e-4, 5.48))
    def test_equals_all_rows_formula_for_random_grids(self, q, dist):
        p = GccParams(q=q, dist=dist)
        g = theta_grid(p)
        w = steering_matrix(p, g).entries
        assert_same_bits(w, all_rows(p, g))
        assert np.array_equal(w, np.conj(w[::-1]))

    def test_asymmetric_grid_evaluates_every_row(self):
        g = theta_grid(TABLE)
        taus = g.taus.copy()
        taus[0] = np.nextafter(taus[0], 0.0)  # one ulp off the mirror of taus[-1]
        grid = AngularGrid(thetas=g.thetas, taus=taus)
        w = steering_matrix(TABLE, grid).entries
        assert_same_bits(w, all_rows(TABLE, grid))
        assert not np.array_equal(w[0], np.conj(w[-1]))

    def test_permuted_grid_evaluates_every_row(self):
        g = theta_grid(TABLE)
        order = np.random.default_rng(13).permutation(TABLE.q)
        grid = AngularGrid(thetas=g.thetas[order], taus=g.taus[order])
        assert_same_bits(steering_matrix(TABLE, grid).entries, all_rows(TABLE, grid))


class TestSteeringCache:
    """W is built once per (N, taus) in a process and shared read-only."""

    def test_equal_parameter_sets_share_one_matrix(self):
        a, b = GccParams(), GccParams()
        assert steering_matrix(a, theta_grid(a)) is steering_matrix(b, theta_grid(b))

    def test_shared_entries_are_the_formulas_bits(self):
        g = theta_grid(TABLE)
        steering_matrix(TABLE, g)
        assert_same_bits(steering_matrix(TABLE, g).entries, all_rows(TABLE, g))

    @pytest.mark.parametrize("other", [GccParams(dist=0.06), GccParams(n=1024)])
    def test_other_dist_or_frame_size_gets_its_own_matrix(self, other):
        w = steering_matrix(other, theta_grid(other))
        assert w is not steering_matrix(TABLE, theta_grid(TABLE))
        assert_same_bits(w.entries, all_rows(other, theta_grid(other)))

    def test_grid_one_ulp_off_gets_its_own_matrix(self):
        g = theta_grid(TABLE)
        taus = g.taus.copy()
        taus[7] = np.nextafter(taus[7], np.inf)
        grid = AngularGrid(thetas=g.thetas, taus=taus)
        w = steering_matrix(TABLE, grid)
        assert w is not steering_matrix(TABLE, g)
        assert_same_bits(w.entries, all_rows(TABLE, grid))

    def test_each_call_returns_its_own_sets_bits(self):
        # more parameter sets than the cache holds, then the first again
        sets = [GccParams(dist=d) for d in (0.05, 0.04, 0.03, 0.02, 0.01, 0.05)]
        for p in sets + sets[::-1]:
            g = theta_grid(p)
            assert_same_bits(steering_matrix(p, g).entries, all_rows(p, g))

    def test_shared_arrays_stay_read_only(self):
        w = steering_matrix(TABLE, theta_grid(TABLE))
        for a in (w.gains, w.entries):
            with pytest.raises(ValueError):
                a[0] = 0
        assert not steering_matrix(TABLE, theta_grid(TABLE)).entries.flags.writeable


@pytest.mark.parametrize("field, what, value", [
    ("dist", "microphone spacing", 0.0), ("dist", "microphone spacing", np.nan),
    ("speed", "speed of sound", -343.0), ("speed", "speed of sound", np.inf),
    ("rate", "sample rate", 0), ("rate", "sample rate", -np.inf)])
def test_positive_and_finite_message(field, what, value):
    with pytest.raises(ConfigurationError) as exc:
        GccParams(**{field: value})
    assert str(exc.value) == f"{what} must be positive and finite, got {value}"


class TestIntegerCounts:
    """q, n and hop become numpy shapes and strides: a float is refused where it is set."""

    @pytest.mark.parametrize("kwargs", [dict(q=181.0), dict(n=512.0), dict(hop=160.0),
                                        dict(n=np.float64(512)), dict(hop="160")])
    def test_non_integer_rejected(self, kwargs):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            GccParams(**kwargs)

    def test_numpy_integers_accepted(self):
        from gccdoa.estimators import build_estimator
        p = GccParams(q=np.int64(181), n=np.int32(512), hop=np.uint16(160))
        assert p == TABLE and {type(p.q), type(p.n), type(p.hop)} == {int}
        x = np.exp(1j * np.linspace(0.0, 3.0, 257))
        for name in ("mm", "svd", "fft02-qi"):
            assert build_estimator(name, p).estimate(x) == build_estimator(name, TABLE).estimate(x)


class TestIntegerInterp:
    """interp sizes the padded transform and names the fft back-end (``fft{interp:02d}``):
    a float or a string is refused where it is set, even one equal to an allowed factor."""

    @pytest.mark.parametrize("interp", [2.0, np.float64(2), "2"])
    def test_non_integer_rejected(self, interp):
        with pytest.raises(ConfigurationError) as info:
            GccParams(interp=interp)
        assert str(info.value) == f"interp must be an integer, got {interp!r}"

    def test_numpy_integer_accepted(self):
        from gccdoa.estimators import FftEstimator
        p = GccParams(interp=np.int64(2))
        assert p == GccParams(interp=2) and type(p.interp) is int
        est = FftEstimator(p, qi=True)
        assert est.name == "fft02-qi"
        x = np.exp(1j * np.linspace(0.0, 3.0, 257))
        assert est.estimate(x) == FftEstimator(GccParams(interp=2), qi=True).estimate(x)
