"""Self-tests of the benchmark's own code: normalization, percentiles,
tracing and input generation. Run with
``PYTHONPATH=src python -m pytest -q perfbench``."""
from fractions import Fraction

import pytest

from perfbench import measure, tracer, workloads


def test_normalize_scales_by_the_reference():
    assert measure.normalize(2.0, 0.04, nominal_s=0.02) == pytest.approx(1.0)
    assert measure.normalize(0.5, measure.NOMINAL_REF_S) == pytest.approx(0.5)
    # a machine twice as slow doubles both times and leaves the result alone
    assert measure.normalize(6.0, 0.06) == pytest.approx(measure.normalize(3.0, 0.03))
    with pytest.raises(ValueError):
        measure.normalize(1.0, 0.0)
    with pytest.raises(ValueError):
        measure.normalize(-1.0, 0.02)


def test_reference_kernel_times_itself():
    assert 0 < measure.reference_kernel() < 10


def test_median():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        measure.median([])


def test_percentile_needs_ten_samples_beyond_it():
    assert measure.min_samples_for(0.9) == 100
    assert measure.min_samples_for(0.5) == 20
    assert measure.min_samples_for(0.99) == 1000
    assert measure.percentile(range(99), 0.9) is None
    values = list(range(1, 101))
    p90 = measure.percentile(values, 0.9)
    assert p90 == 90
    assert sum(1 for v in values if v > p90) == measure.MIN_SAMPLES_BEYOND
    assert measure.percentile(list(range(1, 201)), 0.9) == 180


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 10.0, 12.0])
    tr = tracer.Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    wrapped_inner = tr._wrap(inner, "inner", "solver", "solver.ball_mode_solve_calls", True, False)

    def outer():
        return wrapped_inner() + 1

    wrapped_outer = tr._wrap(outer, "outer", "traces", None, True, False)
    assert wrapped_outer() == 2          # outer 0..4, inner 1..3
    assert wrapped_inner() == 1          # inner 10..12, no parent
    assert tr.self_s["traces"] == pytest.approx(2.0)
    assert tr.self_s["solver"] == pytest.approx(4.0)
    assert tr.counts["solver.ball_mode_solve_calls"] == 2
    # spans: (id, name, start, end, parent id)
    assert tr.spans == [(0, "outer", 0.0, 4.0, -1), (1, "inner", 1.0, 3.0, 0), (2, "inner", 10.0, 12.0, -1)]


def test_every_binding_of_a_target_is_wrapped():
    import gjms6  # noqa: F401
    import gjms6.cli  # noqa: F401
    from gjms6 import solver
    from gjms6.solver import BoundaryTriple

    assert tracer.unwrapped_bindings()  # e.g. gjms6.energy binds ball_mode_solve
    original = solver.ball_mode_solve
    tr = tracer.Tracer().install()
    try:
        assert tracer.unwrapped_bindings() == []
        import gjms6.energy

        gjms6.energy.ball_mode_solve(7, 1, BoundaryTriple(Fraction(1), Fraction(2), Fraction(8)))
        solver.ball_mode_solve(7, 1, BoundaryTriple(Fraction(1), Fraction(2), Fraction(8)))
        assert tr.counts["solver.ball_mode_solve_calls"] == 2
        assert tr.keys["solver.ball_mode_solve_calls"] and len(tr.keys["solver.ball_mode_solve_calls"]) == 1
        assert tr.counts["boundary.apply_B_calls"] > 0  # solver's own binding of apply_B
    finally:
        tr.uninstall()
    assert solver.ball_mode_solve is original
    assert tracer.unwrapped_bindings()


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build("energy-dtn", 3) != workloads.build("energy-dtn", 4)


def test_dtn_references():
    # the coordinate function x1 = r Y_1 has boundary data (1, 2, 8) at n = 7
    assert workloads.dtn_energy(7, 1, (1, 2, 8)) / 8 == workloads.COORDINATE_ENERGY
    # order-5 multiplier at l = 0: (8/3) Gamma(6)/Gamma(1)
    assert workloads.dtn_multiplier(7, 5, 0) == Fraction(8, 3) * 120


def _passes(*samples):
    return [{"samples": [[name, 0.01, status, None] for name, status in samples]}]


def test_tally_counts_failures_and_flags_errors():
    from perfbench.run import tally

    known = sorted(workloads.KNOWN_FAILURES)[0]
    assert tally(_passes(("a", "ok"), ("b", "ok"))) == {"correct": True, "attempted": 2, "failed": 0}
    # a known failure answering wrong is counted but leaves the run correct
    assert tally(_passes(("a", "ok"), (known, "wrong"))) == {"correct": True, "attempted": 2, "failed": 1}
    # any other wrong answer, and any check that raises, makes it incorrect
    assert tally(_passes(("a", "wrong"), ("b", "ok")))["correct"] is False
    assert tally(_passes(("a", "error"), ("b", "ok"))) == {"correct": False, "attempted": 2, "failed": 1}
    assert tally(_passes((known, "error")))["correct"] is False


def test_known_failures_are_checks_of_every_covariance_run():
    from perfbench.worker import exact_covariance_checks

    for seed in (0, 5):
        names = {c.name for c in exact_covariance_checks(workloads.build("exact-covariance", seed))}
        assert workloads.KNOWN_FAILURES <= names
        assert {f"n{n}-finite-B4-fixed-probe{k}" for n in (5, 7) for k in range(3)} <= names


def test_metrics_are_those_of_benchmark_json():
    import json

    from perfbench.run import ROOT, end_to_end, per_layer, units

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"self_s": {layer: 0.001 for layer in tracer.LAYERS},
              "counts": {c: 3 for c in tracer.COUNTERS}, "distinct": {c: 1 for c in tracer.KEYED}}
    passes = [{"samples": [[f"c{i}", 0.01 * (i + 1), "ok", None] for i in range(40)], "refs": [0.02, 0.03],
               "peak_rss_mb": 30.0, "trace": report} for _ in range(3)]
    setups = [{"raw_s": 0.1, "refs": [0.02]}]
    assert set(end_to_end(passes, setups)) == {m["name"] for m in spec["end_to_end"]}
    assert set(per_layer(passes)) == {m["name"] for m in spec["per_layer"]}
    assert set(units()) == {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
