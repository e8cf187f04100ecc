"""Self time, the tail-percentile rule, unit counting and the tracer's
install/remove contract. Run with: python3 -m pytest perfbench/tests"""

import sys
import types
from types import SimpleNamespace

import pytest

import run
import tracing


def test_self_time_subtracts_covered_children():
    assert tracing.self_time(0.0, 10.0, []) == 10.0
    assert tracing.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlap_once_and_clips_to_span():
    # (2, 4) nests inside (1, 5); (8, 12) sticks out past the span's end.
    children = [(2.0, 4.0), (1.0, 5.0), (8.0, 12.0), (-3.0, -1.0)]
    assert tracing.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 4.0 - 2.0)


def test_self_time_of_fully_covered_span_is_zero():
    assert tracing.self_time(1.0, 2.0, [(0.0, 3.0)]) == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [(0, 100.0), (1, 100.0), (19, 100.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tracing.tail_percentile(n) == expected


def test_summarize_median_tail_and_count():
    assert tracing.summarize([]) == (0.0, 0.0, 0)
    assert tracing.summarize([3.0, 1.0, 2.0]) == (2.0, 3.0, 3)
    samples = list(range(1, 101))  # nearest-rank p90 of 1..100 is 90
    median, tail, n = tracing.summarize(samples)
    assert (median, tail, n) == (50.5, 90, 100)
    assert sum(s > tail for s in samples) >= tracing.MIN_BEYOND


def test_count_units_and_fail_frac():
    clean = SimpleNamespace(attempted=400, failed=0)
    assert run.count_units(clean, correct=True) == (400, 0)
    assert run.fail_frac(*run.count_units(clean, correct=True)) == 0.0
    skipped = SimpleNamespace(attempted=400, failed=3)
    assert run.fail_frac(*run.count_units(skipped, correct=True)) == 3 / 400
    # a run whose correctness checks fail counts every unit as failed
    assert run.count_units(skipped, correct=False) == (400, 400)
    assert run.fail_frac(400, 400) == 1.0
    assert run.count_units(SimpleNamespace(attempted=0, failed=0), correct=False) == (1, 1)


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake")
    mod.work = lambda x: x + 1
    mod.outer = lambda x: mod.work(x) * 2
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_records_nested_spans_and_restores_names(fake_module):
    work, outer = fake_module.work, fake_module.outer
    tracer = tracing.Tracer()
    table = [
        ("perfbench_fake", "outer", "fake.outer", None),
        ("perfbench_fake", "work", "fake.work", lambda a, k, r: r),
        ("perfbench_fake", "gone", "fake.gone", None),
        ("perfbench_fake", "also_gone", "fake.work", None),
    ]
    tracer.install(table)
    try:
        with tracer.scope(tracing.SCOPE_EVAL):
            assert fake_module.outer(1) == 4
    finally:
        tracer.remove()
    assert fake_module.work is work and fake_module.outer is outer
    # a kind with one name left is still traced, but every missing name is listed
    assert tracer.absent == ["fake.gone"]
    assert tracer.missing == ["perfbench_fake.gone", "perfbench_fake.also_gone"]
    (k0, s0, e0, parent0, scope0, _), (k1, s1, e1, parent1, _, value1) = tracer.spans
    assert (k0, parent0, k1, parent1, value1) == ("fake.outer", -1, "fake.work", 0, 2)
    assert tracer.scopes[scope0] == tracing.SCOPE_EVAL
    assert s0 <= s1 <= e1 <= e0


def test_real_hook_table_finds_every_name_and_is_removed_on_error():
    import clozerm.model
    import clozerm.tokenizer

    gelu, encode = clozerm.model.gelu, clozerm.tokenizer.Tokenizer.encode
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.traced(tracer):
            assert clozerm.model.gelu is not gelu
            raise RuntimeError("the workload failed")
    assert clozerm.model.gelu is gelu and clozerm.tokenizer.Tokenizer.encode is encode
    assert tracer.absent == [] and tracer.missing == []
