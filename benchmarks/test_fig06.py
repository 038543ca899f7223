"""Benchmarks regenerating Figure 6 (profiling error + interference)."""

from conftest import emit, run_once

from repro.experiments.fig06_models import fig6a, fig6b, fig6c, fit_curves
from repro.metrics.report import format_series, format_table


def test_fig6a_profiling_error(benchmark):
    result = run_once(benchmark, fig6a)
    rows = [
        [i + 1, actual, estimated]
        for i, (actual, estimated) in enumerate(
            zip(result["actual"], result["estimated"])
        )
    ]
    emit(
        f"Figure 6(a): actual vs estimated Sort JCT -- mean error "
        f"{100 * result['mean_error']:.1f}% / std {100 * result['std_error']:.1f}% "
        "(paper: 10.8% / 9.7%)",
        format_table(["sample", "actual_s", "estimated_s"], rows),
    )
    assert result["mean_error"] < 0.30


def test_fig6b_cpu_interference(benchmark):
    result = run_once(benchmark, fig6b)
    emit(
        "Figure 6(b): normalized JCT vs collocated CPU load "
        "(paper: PiEst slows, Sort mostly unaffected)",
        "\n".join(format_series(k, v) for k, v in result.items()),
    )
    assert result["PiEst"][900] > result["Sort"][900] > 1.0


def test_fig6c_io_interference(benchmark):
    result = run_once(benchmark, fig6c)
    fits = fit_curves(fig6c_curves=result)["fig6c"]
    emit(
        "Figure 6(c): normalized JCT vs collocated I/O rate "
        "(paper: Sort grows exponentially, PiEst flat)",
        "\n".join(format_series(k, v) for k, v in result.items())
        + "\nexponential fit R²: "
        + ", ".join(f"{k} {v['r2']:.3f}" for k, v in fits.items()),
    )
    assert result["Sort"][60] > 1.3
    assert result["PiEst"][60] < 1.15
    # the paper's I/O model: Sort's slowdown is exponential in the
    # collocated I/O rate
    assert fits["Sort"]["r2"] >= 0.95
