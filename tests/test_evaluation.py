"""Energy-weighted aggregation, RMSE, the accuracy sweep, CSV emission, and
the timing benchmark (functional properties only; ordering claims live in the
acceptance suite)."""
import numpy as np
import pytest

from gccdoa import evaluation
from gccdoa.core import GccParams
from gccdoa.errors import ConfigurationError, DimensionError
from gccdoa.evaluation import (CELL_HEADER, TIMING_HEADER, CellReport,
                               ConfigurationResult, TimingReport,
                               check_accuracy_reports, emit_reports,
                               params_fingerprint, rmse, run_accuracy_sweep,
                               run_bench, weighted_doa)


def _result(thetas, energies, theta0=0.0):
    thetas = np.asarray(thetas, dtype=np.float64)
    energies = np.asarray(energies, dtype=np.float64)
    return ConfigurationResult(theta0=theta0,
                               weighted_sum=float(np.sum(thetas * energies)),
                               energy_sum=float(np.sum(energies)),
                               frames=len(thetas))


class TestWeightedDoa:
    def test_constant_frames_return_that_angle(self):
        assert weighted_doa(_result([0.7, 0.7, 0.7], [1.0, 2.5, 0.3])) == pytest.approx(0.7)

    def test_two_frame_weighted_mean(self):
        # (0.2, E=1) and (0.4, E=3) -> 0.35
        assert weighted_doa(_result([0.2, 0.4], [1.0, 3.0])) == pytest.approx(0.35)

    def test_uniform_energy_is_plain_mean(self):
        thetas = np.linspace(-0.5, 0.5, 11)
        got = weighted_doa(_result(thetas, np.full(11, 2.0)))
        assert got == pytest.approx(np.mean(thetas), abs=1e-15)

    def test_zero_energy_is_degenerate(self):
        with pytest.raises(ConfigurationError):
            weighted_doa(ConfigurationResult(0.0, 0.0, 0.0, 5))


class TestRmse:
    def test_all_zero(self):
        assert rmse([0.0, 0.0, 0.0]) == 0.0

    def test_frozen_two_element_case(self):
        assert rmse([3.0, -4.0]) == pytest.approx(3.5355339059327378, abs=1e-12)

    def test_matches_norm_over_sqrt_m(self):
        rng = np.random.default_rng(13)
        errs = rng.standard_normal(37) * 5.0
        expected = np.linalg.norm(errs) / np.sqrt(len(errs))
        assert rmse(errs) == pytest.approx(expected, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            rmse([])


class TestAccuracySweep:
    # n_configs and duration kept tiny: this checks plumbing, not accuracy
    CELLS = ((0.0, 40.0),)

    def test_deterministic_and_shaped(self):
        kw = dict(methods=["mm", "fft01"], cells=self.CELLS, n_configs=2,
                  seed=123, duration_s=0.3, rir_length=1024)
        a = run_accuracy_sweep(**kw)
        b = run_accuracy_sweep(**kw)
        assert a == b
        assert [r.method for r in a] == ["mm", "fft01"]
        for r in a:
            assert r.configurations == 2
            assert np.isfinite(r.rmse_deg) and r.rmse_deg >= 0.0
            assert (r.beta, r.snr_db) == self.CELLS[0]

    def test_seed_changes_results(self):
        kw = dict(methods=["mm"], cells=self.CELLS, n_configs=2,
                  duration_s=0.3, rir_length=1024)
        assert run_accuracy_sweep(seed=1, **kw) != run_accuracy_sweep(seed=2, **kw)

    def test_rejects_empty_cell_budget(self):
        with pytest.raises(ConfigurationError):
            run_accuracy_sweep(["mm"], self.CELLS, n_configs=0, seed=0)


class TestBench:
    def test_smoke_and_fields(self):
        params = GccParams()
        reports = run_bench(["mm", "svd"], n_frames=50, params=params, warmup=5)
        assert [r.method for r in reports] == ["mm", "svd"]
        for r in reports:
            assert r.frames_timed == 50
            assert r.mean_us_per_frame > 0.0
            assert r.median_us_per_frame > 0.0
            assert r.params == params_fingerprint(params)

    def test_rejects_empty_batch(self):
        with pytest.raises(ConfigurationError):
            run_bench(["mm"], n_frames=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ConfigurationError, match="warm-up"):
            run_bench(["mm"], n_frames=5, warmup=-1)


class TestEmitReports:
    def test_cell_csv_layout(self, tmp_path):
        rows = [CellReport("mm", 0.0, 40.0, 1.23456789, 50),
                CellReport("fft01", 0.6, 10.0, 20.5, 49)]
        out = tmp_path / "cells.csv"
        emit_reports(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == CELL_HEADER
        assert lines[1] == "mm,0.000000,40.000000,1.234568,50"
        assert lines[2] == "fft01,0.600000,10.000000,20.500000,49"

    def test_timing_csv_layout(self, tmp_path):
        fp = params_fingerprint(GccParams())
        rows = [TimingReport("svd", 7.25, 6.87501, 2000, fp)]
        out = tmp_path / "timing.csv"
        emit_reports(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == TIMING_HEADER
        assert lines[1] == f"svd,7.250000,6.875010,2000,{fp}"

    def test_empty_reports_write_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_reports([], out, kind="timing")
        assert out.read_text() == TIMING_HEADER + "\n"

    def test_round_trip_precision(self, tmp_path):
        rows = [CellReport("mm", 0.0, 40.0, 0.654321987, 50)]
        out = tmp_path / "rt.csv"
        emit_reports(rows, out)
        val = float(out.read_text().splitlines()[1].split(",")[3])
        assert val == pytest.approx(rows[0].rmse_deg, abs=1e-6)


def _reports(mm, f1, qi):
    """Build a full 4-cell report set from per-cell rmse dicts."""
    cells = ((0.0, 40.0), (0.0, 10.0), (0.6, 40.0), (0.6, 10.0))
    out = []
    for (beta, snr), a, b, c in zip(cells, mm, f1, qi):
        out.append(CellReport("mm", beta, snr, a, 50))
        out.append(CellReport("fft01", beta, snr, b, 50))
        out.append(CellReport("fft02-qi", beta, snr, c, 50))
    return out


class TestCheckAccuracyReports:
    def test_all_pass_on_consistent_numbers(self):
        reports = _reports(mm=[1.0, 3.0, 5.0, 8.0],
                           f1=[18.0, 19.0, 21.0, 24.0],
                           qi=[1.05, 3.1, 5.2, 8.3])
        assert all(ok for _, ok, _ in check_accuracy_reports(reports))

    def test_each_property_can_fail_alone(self):
        base = dict(mm=[1.0, 3.0, 5.0, 8.0], f1=[18.0, 19.0, 21.0, 24.0],
                    qi=[1.05, 3.1, 5.2, 8.3])
        # fft01 better than mm in one cell
        bad = dict(base, f1=[0.5, 19.0, 21.0, 24.0])
        names = {n: ok for n, ok, _ in check_accuracy_reports(_reports(**bad))}
        assert not names["mm-beats-fft01"]
        # qi off by more than 10 %
        bad = dict(base, qi=[1.2, 3.1, 5.2, 8.3])
        names = {n: ok for n, ok, _ in check_accuracy_reports(_reports(**bad))}
        assert not names["fft02-qi-within-10pct-of-mm"]
        # noise helps (impossible physically, must be flagged)
        bad = dict(base, mm=[3.0, 1.0, 5.0, 8.0])
        names = {n: ok for n, ok, _ in check_accuracy_reports(_reports(**bad))}
        assert not names["mm-degrades-with-noise"]
        # reverb helps
        bad = dict(base, mm=[5.0, 6.0, 1.0, 8.0])
        names = {n: ok for n, ok, _ in check_accuracy_reports(_reports(**bad))}
        assert not names["mm-degrades-with-reverb"]

    def test_missing_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            check_accuracy_reports([CellReport("mm", 0.0, 40.0, 1.0, 50)])


def test_empty_reports_default_to_the_cells_header(tmp_path):
    out = tmp_path / "empty.csv"
    emit_reports([], out)
    assert out.read_text() == CELL_HEADER + "\n"


def test_degenerate_configuration_is_left_out_of_the_count(monkeypatch):
    """A configuration whose weighted DOA raises is excluded from the RMSE, visible in the count."""
    calls = []

    def first_degenerate(result):
        calls.append(result)
        if len(calls) == 1:
            raise ConfigurationError("zero energy")
        return weighted_doa(result)
    monkeypatch.setattr(evaluation, "weighted_doa", first_degenerate)
    reports = run_accuracy_sweep(["mm"], ((0.0, 40.0),), n_configs=3, seed=123,
                                 duration_s=0.3, rir_length=1024)
    assert len(calls) == 3
    assert [r.configurations for r in reports] == [2]
    assert np.isfinite(reports[0].rmse_deg)


class TestVerdictTuples:
    """The exact (name, passed, detail) verdicts, detail strings included."""

    def test_passing_set(self):
        reports = _reports(mm=[1.0, 3.0, 5.0, 8.0], f1=[18.0, 19.0, 21.0, 24.0],
                           qi=[1.05, 3.1, 5.2, 8.3])
        assert check_accuracy_reports(reports) == [
            ("mm-beats-fft01", True, "(0,40): 1.000<= 18.000; (0,10): 3.000<= 19.000; "
                                     "(0.6,40): 5.000<= 21.000; (0.6,10): 8.000<= 24.000"),
            ("fft02-qi-within-10pct-of-mm", True, "(0,40): rel=0.050; (0,10): rel=0.033; "
                                                  "(0.6,40): rel=0.040; (0.6,10): rel=0.038"),
            ("mm-degrades-with-noise", True, "beta=0: 3.000>= 1.000; beta=0.6: 8.000>= 5.000"),
            ("mm-degrades-with-reverb", True, "5.000>= 1.000 at snr=40")]

    def test_failing_set(self):
        # one passing row does not save a property whose other rows fail
        reports = _reports(mm=[3.0, 1.0, 2.0, 0.5], f1=[2.0, 19.0, 21.0, 24.0],
                           qi=[3.0, 1.2, 2.1, 0.5])
        assert check_accuracy_reports(reports) == [
            ("mm-beats-fft01", False, "(0,40): 3.000<= 2.000; (0,10): 1.000<= 19.000; "
                                      "(0.6,40): 2.000<= 21.000; (0.6,10): 0.500<= 24.000"),
            ("fft02-qi-within-10pct-of-mm", False, "(0,40): rel=0.000; (0,10): rel=0.200; "
                                                   "(0.6,40): rel=0.050; (0.6,10): rel=0.000"),
            ("mm-degrades-with-noise", False, "beta=0: 1.000>= 3.000; beta=0.6: 0.500>= 2.000"),
            ("mm-degrades-with-reverb", False, "2.000>= 3.000 at snr=40")]

    def test_missing_method_named_with_its_cell(self):
        reports = [r for r in _reports(mm=[1.0, 3.0, 5.0, 8.0], f1=[18.0, 19.0, 21.0, 24.0],
                                       qi=[1.05, 3.1, 5.2, 8.3]) if r.method != "fft02-qi"]
        with pytest.raises(ConfigurationError) as exc:
            check_accuracy_reports(reports)
        assert str(exc.value) == "no report for fft02-qi at beta=0.0, snr=40.0"


@pytest.mark.parametrize("seed", [1.5, "8", np.float64(2.0)])
def test_sweep_seed_must_be_an_integer(seed):
    """The sweep's seed goes through the same seed path rule as every other seed."""
    with pytest.raises(ConfigurationError, match="seed path entries must be integers"):
        run_accuracy_sweep(["mm"], ((0.0, 40.0),), n_configs=1, seed=seed, duration_s=0.1)


def test_sweep_takes_a_numpy_integer_seed():
    kwargs = dict(methods=["mm"], cells=((0.0, 40.0),), n_configs=1, duration_s=0.1,
                  rir_length=256)
    assert run_accuracy_sweep(seed=np.int64(3), **kwargs) == run_accuracy_sweep(seed=3, **kwargs)


@pytest.mark.parametrize("kind", ["timng", "cell", "", "CELLS"])
@pytest.mark.parametrize("rows", [[], [CellReport("mm", 0.0, 40.0, 1.0, 50)]])
def test_emit_reports_rejects_an_unknown_kind(tmp_path, kind, rows):
    out = tmp_path / "r.csv"
    with pytest.raises(ConfigurationError, match="unknown report kind"):
        emit_reports(rows, out, kind=kind)
    assert not out.exists()


def test_emit_reports_cells_kind_writes_the_cells_header(tmp_path):
    out = tmp_path / "empty.csv"
    emit_reports([], out, kind="cells")
    assert out.read_text() == CELL_HEADER + "\n"


def _grid_reports(cells, mm, f1, qi):
    return [CellReport(method, beta, snr, rmse, 50)
            for (beta, snr), a, b, c in zip(cells, mm, f1, qi)
            for method, rmse in (("mm", a), ("fft01", b), ("fft02-qi", c))]


class TestCellsFromReports:
    """check_accuracy_reports judges the cells the reports hold, not a restated list."""

    def test_a_non_default_grid_is_checked_as_it_stands(self):
        reports = _grid_reports(((0.3, 30.0), (0.3, 5.0), (0.9, 30.0), (0.9, 5.0)),
                                mm=[1.0, 3.0, 5.0, 8.0], f1=[18.0, 19.0, 21.0, 24.0],
                                qi=[1.05, 3.1, 5.2, 8.3])
        assert check_accuracy_reports(reports) == [
            ("mm-beats-fft01", True, "(0.3,30): 1.000<= 18.000; (0.3,5): 3.000<= 19.000; "
                                     "(0.9,30): 5.000<= 21.000; (0.9,5): 8.000<= 24.000"),
            ("fft02-qi-within-10pct-of-mm", True, "(0.3,30): rel=0.050; (0.3,5): rel=0.033; "
                                                  "(0.9,30): rel=0.040; (0.9,5): rel=0.038"),
            ("mm-degrades-with-noise", True, "beta=0.3: 3.000>= 1.000; beta=0.9: 8.000>= 5.000"),
            ("mm-degrades-with-reverb", True, "5.000>= 1.000 at snr=30")]

    def test_details_follow_the_report_order(self):
        cells = ((0.6, 10.0), (0.0, 10.0), (0.6, 40.0), (0.0, 40.0))
        reports = _grid_reports(cells, mm=[8.0, 3.0, 5.0, 1.0], f1=[24.0, 19.0, 21.0, 18.0],
                                qi=[8.3, 3.1, 5.2, 1.05])
        beats = check_accuracy_reports(reports)[0][2]
        assert beats == ("(0.6,10): 8.000<= 24.000; (0,10): 3.000<= 19.000; "
                         "(0.6,40): 5.000<= 21.000; (0,40): 1.000<= 18.000")

    def test_a_sweep_over_other_cells_is_checked_without_restating_them(self):
        cells = ((0.3, 30.0), (0.9, 5.0), (0.3, 5.0), (0.9, 30.0))
        reports = run_accuracy_sweep(["mm", "fft01", "fft02-qi"], cells, n_configs=1, seed=4,
                                     duration_s=0.3, rir_length=1024)
        verdicts = check_accuracy_reports(reports)
        assert [name for name, _, _ in verdicts] == [
            "mm-beats-fft01", "fft02-qi-within-10pct-of-mm", "mm-degrades-with-noise",
            "mm-degrades-with-reverb"]
        assert verdicts[0][2].startswith("(0.3,30): ")

    @pytest.mark.parametrize("cells, message", [
        (((0.0, 40.0),), "betas, got [0.0]"),
        (((0.0, 40.0), (0.0, 10.0)), "betas, got [0.0]"),
        (((0.0, 40.0), (0.6, 40.0)), "SNRs, got [40.0]"),
    ])
    def test_fewer_than_two_betas_or_snrs_is_refused(self, cells, message):
        reports = _grid_reports(cells, mm=[1.0] * 4, f1=[2.0] * 4, qi=[1.0] * 4)
        with pytest.raises(ConfigurationError) as exc:
            check_accuracy_reports(reports)
        assert str(exc.value) == f"the accuracy check needs reports at two or more {message}"

    def test_no_reports_is_refused(self):
        with pytest.raises(ConfigurationError, match=r"two or more betas, got \[\]"):
            check_accuracy_reports([])


class TestZeroMmRmse:
    """An mm RMSE of exactly 0 gives rel 0 against a qi RMSE of 0, and inf otherwise."""

    def test_both_zero_reads_rel_zero_and_passes(self):
        reports = _reports(mm=[0.0, 3.0, 5.0, 8.0], f1=[18.0, 19.0, 21.0, 24.0],
                           qi=[0.0, 3.1, 5.2, 8.3])
        name, passed, detail = check_accuracy_reports(reports)[1]
        assert (name, passed) == ("fft02-qi-within-10pct-of-mm", True)
        assert detail.startswith("(0,40): rel=0.000; ")

    def test_mm_zero_alone_reads_rel_inf_and_fails(self):
        reports = _reports(mm=[0.0, 3.0, 5.0, 8.0], f1=[18.0, 19.0, 21.0, 24.0],
                           qi=[0.2, 3.1, 5.2, 8.3])
        name, passed, detail = check_accuracy_reports(reports)[1]
        assert (name, passed) == ("fft02-qi-within-10pct-of-mm", False)
        assert detail.startswith("(0,40): rel=inf; (0,10): rel=0.033")


def test_sweep_renders_at_the_params_speed_of_sound(monkeypatch):
    import inspect
    from gccdoa import simulator
    real = simulator.image_rir
    seen = []

    def spy(*args, **kwargs):
        seen.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("speed", 343.0))
        return real(*args, **kwargs)
    monkeypatch.setattr(simulator, "image_rir", spy)
    run_accuracy_sweep(["mm"], ((0.0, 40.0),), n_configs=2, seed=6,
                       params=GccParams(speed=300.0), duration_s=0.3, rir_length=1024)
    assert seen == [300.0] * 4  # two mics per configuration
