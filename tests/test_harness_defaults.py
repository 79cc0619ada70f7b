"""The defaults of the two harnesses, `gccdoa evaluate` and `gccdoa bench`, are
``evaluation``'s constants, and a harness scores each method and cell once."""
import inspect

import pytest

from gccdoa import evaluation
from gccdoa.cli import build_parser, main
from gccdoa.errors import ConfigurationError
from gccdoa.evaluation import (DEFAULT_BENCH_FRAMES, DEFAULT_BETAS, DEFAULT_CELLS,
                               DEFAULT_CONFIGS, DEFAULT_EVAL_SEED, DEFAULT_METHODS,
                               DEFAULT_SNRS, DEFAULT_WARMUP, CellReport,
                               check_accuracy_reports, emit_reports, run_accuracy_sweep)


def test_default_cells_are_the_betas_times_the_snrs():
    assert DEFAULT_CELLS == ((0.0, 40.0), (0.0, 10.0), (0.6, 40.0), (0.6, 10.0))
    assert DEFAULT_CELLS == tuple((b, s) for b in DEFAULT_BETAS for s in DEFAULT_SNRS)


def test_evaluate_parser_defaults_are_the_constants():
    args = build_parser().parse_args(["evaluate"])
    assert args.methods.split(",") == list(DEFAULT_METHODS)
    assert tuple(map(float, args.betas.split(","))) == DEFAULT_BETAS
    assert tuple(map(float, args.snrs.split(","))) == DEFAULT_SNRS
    assert (args.betas, args.snrs) == ("0,0.6", "40,10")
    assert args.configs == DEFAULT_CONFIGS == 50
    assert args.seed == DEFAULT_EVAL_SEED


def test_bench_parser_defaults_are_the_constants():
    args = build_parser().parse_args(["bench"])
    assert args.methods == "all"
    assert args.frames == DEFAULT_BENCH_FRAMES == 2000
    assert args.warmup == DEFAULT_WARMUP == 100
    assert inspect.signature(evaluation.run_bench).parameters["warmup"].default == DEFAULT_WARMUP


def test_default_evaluate_writes_the_default_sweep(tmp_path, capsys):
    out, expected = tmp_path / "cli.csv", tmp_path / "api.csv"
    assert main(["evaluate", "--configs", "2", "--duration", "0.3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"{2 * 2 * 3} rows -> {out}\n"
    emit_reports(run_accuracy_sweep(DEFAULT_METHODS, DEFAULT_CELLS, 2, DEFAULT_EVAL_SEED,
                                    duration_s=0.3), expected)
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command, flag, spec", [
    ("evaluate", "--betas", "0,0.6,0"),
    ("evaluate", "--betas", "0,0.0"),
    ("evaluate", "--betas", "-0,0"),
    ("evaluate", "--snrs", "40,40.0"),
    ("evaluate", "--methods", "mm,fft01,mm"),
    ("bench", "--methods", "mm,mm"),
])
def test_repeated_entry_exits_2_and_writes_nothing(tmp_path, command, flag, spec, capsys):
    out = tmp_path / "out.csv"
    assert main([command, f"{flag}={spec}", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {flag} {spec!r}: an entry is repeated\n")
    assert not out.exists()


def test_check_refuses_two_reports_of_one_cell():
    reports = [CellReport(m, beta, snr, 1.0 + beta + 10.0 / snr, 50)
               for beta, snr in DEFAULT_CELLS for m in DEFAULT_METHODS]
    assert all(passed for _, passed, _ in check_accuracy_reports(reports))
    with pytest.raises(ConfigurationError, match="one report per"):
        check_accuracy_reports([*reports, CellReport("mm", 0.0, 40.0, 99.0, 50)])
