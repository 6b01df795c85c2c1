"""The fault injection of the negative controls, and the implications that
keep each verification suite's pass free of a condition another implies,
and the report's dict."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import polar_derham as pd
from polar_derham import verification
from polar_derham.bsplines import csr_from_triplet, triplet
from polar_derham.verification import inject_row_drop, run_verification

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PARTS = ("spec", "tensor", "extraction", "incidence", "polar_map", "geometry_map")


@pytest.mark.parametrize("name,row,owner", [("E100", 1, "extraction"), ("D1", 5, "incidence")])
def test_row_drop_patches_a_copy_that_shares_every_other_part(complex_cache, name, row, owner):
    cx = complex_cache(dims=(4, 4, 3))
    family = getattr(cx, owner)
    before = {part: getattr(cx, part) for part in PARTS}
    matrix = getattr(family, name)
    stored = [np.array(a) for a in (matrix.data, matrix.indices, matrix.indptr)]
    bad = inject_row_drop(cx, name, row)
    # the input complex keeps every part and every byte of the matrix, and
    # its family holds no override
    assert all(getattr(cx, part) is before[part] for part in PARTS)
    assert family.overrides == {}
    assert all(map(np.array_equal, (matrix.data, matrix.indices, matrix.indptr), stored))
    # the copy shares every part but the patched family, and in that family
    # the blocks and lift table, with the patched matrix as the one override
    assert all(getattr(bad, part) is before[part] for part in PARTS if part != owner)
    patched = getattr(bad, owner)
    assert patched is not family
    assert all(getattr(patched, other) is getattr(family, other)
               for other in ("joint_blocks", "lifts"))
    assert list(patched.overrides) == [name]
    # the patched matrix differs from the input in the dropped row alone
    dropped = getattr(patched, name)
    assert not dropped[[row - 1]].count_nonzero() and matrix[[row - 1]].count_nonzero()
    kept = [r for r in range(matrix.shape[0]) if r != row - 1]
    assert not (dropped - matrix)[kept].count_nonzero()


def _assert_no_suite_restates_an_implied_condition(report):
    """The count formulas sum to zero alternately, and dims (1, 1, 0, 0)
    force the ranks the cohomology suite expects."""
    expected = report.suites["dimensions"]["expected"]
    assert expected["n0"] - expected["n1"] + expected["n2"] - expected["n3"] == 0
    cohomology = report.suites["cohomology"]
    if cohomology.get("dims") == [1, 1, 0, 0]:
        n0 = report.dims["reduced_dims"][0]
        assert cohomology["ranks"] == [n0 - 1, cohomology["expected_rank_d1"],
                                       cohomology["expected_rank_d2"]]


# the verify cases of the build-verify benchmark workload, its two negative
# controls included
BUILD_VERIFY_CASES = [((2, 2, 2), (4, 4, 3), None), ((2, 2, 2), (5, 6, 4), None),
                      ((2, 2, 2), (7, 7, 5), None), ((3, 3, 3), (7, 7, 5), None),
                      ((2, 2, 2), (8, 8, 6), None), ((2, 2, 2), (4, 4, 3), "perturb-ebar"),
                      ((2, 2, 2), (4, 4, 3), "drop-row")]


@pytest.mark.parametrize("degrees,dims,control", BUILD_VERIFY_CASES)
def test_dropped_gates_are_implied_on_the_build_verify_cases(degrees, dims, control):
    spec = pd.TorusComplexSpec(degrees=degrees, dims=dims)
    cx = pd.build_complex(spec, ebar_perturbation=1e-3 if control == "perturb-ebar" else 0.0)
    if control == "drop-row":
        cx = inject_row_drop(cx, "D1", 5)
    report = run_verification(cx)
    if control is None:
        # the implication is not vacuous on the clean complexes
        assert report.suites["cohomology"]["dims"] == [1, 1, 0, 0]
    _assert_no_suite_restates_an_implied_condition(report)


@settings(max_examples=20, deadline=None)
@given(degrees=st.tuples(*[st.integers(2, 4)] * 3), data=st.data())
def test_dropped_gates_are_implied_over_the_size_floor_domain(degrees, data):
    # from the size floors of the degrees (check_size_floors) up to (10, 10, 7)
    floors = (max(3, degrees[0] - 1), max(4, degrees[1] + 1), max(3, degrees[2] - 1))
    dims = tuple(data.draw(st.integers(lo, hi), label="dims")
                 for lo, hi in zip(floors, (10, 10, 7)))
    report = run_verification(pd.build_complex(pd.TorusComplexSpec(degrees=degrees, dims=dims)))
    assert report.suites["cohomology"]["dims"] == [1, 1, 0, 0]
    _assert_no_suite_restates_an_implied_condition(report)


@pytest.mark.parametrize("dims", [(4, 4, 3), (8, 8, 6)])
def test_report_dict_holds_the_reports_own_values(complex_cache, dims):
    # no deep copy: the dict's values are the report's fields, and its JSON
    # is the deep copy's
    report = run_verification(complex_cache(dims=dims))
    payload = report.to_dict()
    assert list(payload) == [f.name for f in dataclasses.fields(report)]
    assert all(payload[name] is getattr(report, name) for name in payload)
    assert json.dumps(payload, indent=2) == json.dumps(dataclasses.asdict(report), indent=2)


def test_partition_of_unity_suite_reads_the_gathered_entries(complex_cache, monkeypatch):
    # the suite sums the gather's entries per point and per (point,
    # function) pair; the dense (200, n0) basis values it formed before
    # took about 25 MB here
    cx = complex_cache(dims=(32, 32, 16))
    peaks, timed = {}, verification._timed

    def traced(timings, name, fn):
        if name != "partition_of_unity":
            return timed(timings, name, fn)
        tracemalloc.start()
        try:
            return timed(timings, name, fn)
        finally:
            peaks[name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    monkeypatch.setattr(verification, "_timed", traced)
    report = run_verification(cx)
    assert report.suites["partition_of_unity"]["pass"]
    assert peaks["partition_of_unity"] < 2e6, peaks


def test_dta_suite_ranks_each_block_once(complex_cache, monkeypatch):
    # e0, e10 and e01 each lift into two E's; the suite ranked them twice
    cx = complex_cache(dims=(5, 6, 4))
    ranked, rank = [], verification.partition_rank

    def counted(block, name):
        ranked.append(name)
        return rank(block, name)

    monkeypatch.setattr(verification, "partition_rank", counted)
    suite = run_verification(cx).suites["dta"]
    assert ranked == ["E000", "E100", "E010", "E110", "H0_r", "H0_t"]
    assert suite["pass"]
    independence = suite["nonzero_row_independence"]
    for first, second in (("E100", "E101"), ("E010", "E011")):
        assert independence[first] == independence[second]


@pytest.mark.parametrize("label,first", [("e0", "E000"), ("e10", "E100"), ("e01", "E010"),
                                         ("e2", "E110")])
def test_an_unpartitioned_block_is_named_by_its_first_matrix(complex_cache, label, first):
    # two unit rows share a column in a block every E that lifts it holds
    cx = complex_cache(dims=(5, 6, 4))
    extraction = cx.extraction
    block = csr_from_triplet(extraction.blocks[label], extraction.lifts.shapes[label])
    one, two = np.flatnonzero(np.diff(block.indptr) == 1)[:2]
    block = block.tolil()
    block[two] = block[one]
    blocks = list(extraction.joint_blocks)
    blocks[extraction.labels.index(label)] = triplet(block.tocsr())
    bad = dataclasses.replace(cx, extraction=dataclasses.replace(extraction,
                                                                 joint_blocks=tuple(blocks)))
    suite = run_verification(bad).suites["dta"]
    assert not suite["pass"]
    assert suite["structure_violation"].startswith(f"{first} does not partition"), suite
