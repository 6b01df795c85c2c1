"""The benchmark's output checks must flag planted faults.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
from polar_derham import build_complex  # noqa: E402
from polar_derham.torus import TorusComplexSpec  # noqa: E402
from polar_derham.verification import inject_row_drop  # noqa: E402
from workloads import REFERENCE_FILE, FieldSample, evaluate_reference  # noqa: E402

DIMS = (4, 4, 3)


@pytest.fixture(scope="module")
def cx():
    return build_complex(TorusComplexSpec((2, 2, 2), DIMS))


def test_exact_complex_passes(cx):
    mats = cx.named_matrices()
    assert checks.check_complex_property(mats) == []
    assert checks.check_commutation(mats, DIMS) == []
    assert checks.check_dimensions(cx.dims_record()) == []


def test_commutation_check_flags_perturbed_center_block():
    bad = build_complex(TorusComplexSpec((2, 2, 2), DIMS), ebar_perturbation=1e-3)
    assert checks.check_commutation(bad.named_matrices(), DIMS)


def test_complex_property_check_flags_dropped_row(cx):
    bad = inject_row_drop(cx, "D1", 5)
    assert checks.check_complex_property(bad.named_matrices())


def test_dimension_check_flags_wrong_count(cx):
    record = cx.dims_record()
    record["reduced_dims"][2] += 1
    assert checks.check_dimensions(record)


def test_verify_outcome_check():
    good = {"passed": True, "suites": {"cohomology": {"dims": [1, 1, 0, 0]}}}
    assert checks.check_verify_outcome(0, good, negative_control=False) == []
    assert checks.check_verify_outcome(0, good, negative_control=True)
    assert checks.check_verify_outcome(1, {"passed": False}, negative_control=True) == []
    wrong = {"passed": True, "suites": {"cohomology": {"dims": [1, 0, 0, 0]}}}
    assert checks.check_verify_outcome(0, wrong, negative_control=False)


def test_reference_check_flags_nudged_value():
    reference = json.loads(REFERENCE_FILE.read_text())
    field_cx = build_complex(TorusComplexSpec(FieldSample.degrees, FieldSample.dims))
    got = evaluate_reference(field_cx, reference["seed"], reference["points_per_level"])
    assert checks.check_reference(got, reference["entries"]) == []
    xyz, value = got[0]
    got[0] = (xyz, value + 1e-9)
    assert checks.check_reference(got, reference["entries"])


def test_constant_field_check():
    assert checks.check_constant_field([1.0, 1.0 - 1e-15]) == []
    assert checks.check_constant_field([1.0, 1.0 + 1e-9])


def test_operator_round_check():
    zero, ones = np.zeros(4), np.ones(4)
    assert checks.check_operator_round(zero, zero, ones, ones) == []
    assert checks.check_operator_round(zero, zero, ones, ones + 1e-9)
    assert checks.check_operator_round(zero + 1e-9, zero, ones, ones)


def test_benchmark_file_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
