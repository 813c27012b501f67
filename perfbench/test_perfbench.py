"""Checks on the benchmark itself, run on a small slice of each workload."""

import pytest

import run
import workloads

SLICE = {"fans": ("FAN_FIXTURES", ("kronecker_pd1",)),
         "tquiver": ("TQUIVER_FIXTURES", (("duplicated_a2", 1, 9, 11),)),
         "ext": ("EXT_PAIRS", 4)}


@pytest.fixture(scope="module")
def records():
    """Per workload: one untraced and two traced records, same seed."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        for workload, (attr, value) in SLICE.items():
            mp.setattr(workloads, attr, value)
            out[workload] = [run.measure(workload, 3, 0, trace, fresh=False)
                             for trace in (0, 1, 1)]
    return out


def _answers(record):
    return [(r["op"], r["answer"]) for r in record["ops"]]


@pytest.mark.parametrize("workload", sorted(SLICE))
def test_traced_and_untraced_answers_agree(records, workload):
    plain, traced, _ = records[workload]
    assert plain["failed"] == 0 and traced["failed"] == 0
    assert _answers(plain) == _answers(traced)


@pytest.mark.parametrize("workload", sorted(SLICE))
def test_traced_counts_repeat(records, workload):
    _, first, second = records[workload]
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] in ("count", "ratio")}
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
    assert set(first["metrics"]) == set(second["metrics"])


def test_ext_makes_no_krull_schmidt_call(records):
    _, traced, _ = records["ext"]
    assert traced["metrics"]["krullschmidt.calls"]["value"] == 0
    assert traced["metrics"]["homological.ext_calls"]["value"] > 0


def test_tracing_overhead_reported_per_workload(records):
    lines = run.overhead_lines([r for rs in records.values() for r in rs[:2]])
    assert [ln.split()[0] for ln in lines[1:]] == list(records)


@pytest.mark.parametrize("workload", sorted(SLICE))
def test_inputs_come_from_the_seed(workload):
    rt = run.load_reptilt(fresh=False)
    make_inputs = workloads.WORKLOADS[workload][0]
    first = make_inputs(rt, 5)
    assert len(first) == workloads.VARIANTS
    assert first == make_inputs(rt, 5)
    assert first != make_inputs(rt, 6)


def test_tracer_restores_every_binding():
    rt = run.load_reptilt(fresh=False)
    before = (rt.replicated.hom_basis_r, rt.krullschmidt.hom_basis_r,
              rt.linalg.Mat.__mul__, rt.tiltquiver.Registry.canonical)
    from tracer import Tracer
    with Tracer():
        assert rt.krullschmidt.hom_basis_r is rt.replicated.hom_basis_r
        assert rt.krullschmidt.hom_basis_r is not before[0]
    after = (rt.replicated.hom_basis_r, rt.krullschmidt.hom_basis_r,
             rt.linalg.Mat.__mul__, rt.tiltquiver.Registry.canonical)
    assert after == before
