import hashlib
import io
import json
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import sparse

from polar_derham import TorusComplexSpec, build_complex
from polar_derham import cli, iotools, tensor
from polar_derham.cli import main
from polar_derham.geometry import S_MIN_FACTOR
from polar_derham.verification import SCHEMA_VERSION
from polar_derham.iotools import (
    _CHUNK,
    ComplexConfig,
    load_raw_config,
    read_triplet,
    write_bundle,
    write_csv,
    write_triplet,
)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# ------------------------------- config ----------------------------------------

class TestConfig:
    def test_from_dims(self):
        cfg = ComplexConfig.from_dict({"degrees": [2, 2, 2], "dims": [4, 4, 3]})
        assert cfg.distinct_knots == (5, 3, 4)
        assert cfg.dims == (4, 4, 3)
        assert cfg.rho_bar == 3.0
        assert "rho_bar" in cfg.applied_defaults

    def test_from_distinct_knots(self):
        cfg = ComplexConfig.from_dict(
            {"degrees": [3, 2, 3], "distinct_knots": [5, 5, 4], "rho_bar": 2.5}
        )
        assert cfg.dims == (5, 6, 4)
        assert "rho_bar" not in cfg.applied_defaults

    def test_echo_round_trip(self):
        cfg = ComplexConfig.from_dict({"degrees": [2, 2, 2], "dims": [5, 5, 4]})
        again = ComplexConfig.from_dict(cfg.to_dict())
        assert again.dims == cfg.dims
        assert again.distinct_knots == cfg.distinct_knots

    def test_inconsistent_sizes_rejected(self):
        with pytest.raises(ValueError, match="disagree"):
            ComplexConfig.from_dict({
                "degrees": [2, 2, 2], "dims": [4, 4, 3],
                "distinct_knots": [9, 9, 9],
            })

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ComplexConfig.from_dict({"degrees": [2, 2, 2], "dims": [4, 4, 3],
                                     "rho": 3})

    def test_missing_sizes_rejected(self):
        with pytest.raises(ValueError, match="distinct_knots"):
            ComplexConfig.from_dict({"degrees": [2, 2, 2]})


# ------------------------------ triplet io --------------------------------------

class TestTripletRoundTrip:
    @pytest.mark.parametrize("name", ["D0", "E000", "E111", "D100", "H0_r"])
    def test_bit_identical(self, tmp_path, cx443, name):
        matrix = cx443.named_matrices()[name]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_triplet(first, matrix)
        again = read_triplet(first)
        write_triplet(second, again)
        assert first.read_text() == second.read_text()
        assert again.dtype == matrix.tocsr().dtype
        assert (again != matrix.tocsr()).nnz == 0

    def test_header_and_one_based_indices(self, tmp_path):
        mat = sparse.csr_array(np.array([[0.0, 1.5], [0.0, 0.0]]))
        path = tmp_path / "m.txt"
        write_triplet(path, mat)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 2 1"
        assert lines[1] == "1 2 1.5"

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 2\n1 1 1.0\n")
        with pytest.raises(ValueError, match="declares"):
            read_triplet(path)


class TestTripletParser:
    @pytest.mark.parametrize("text", [
        "",
        "2 2\n1 1 1\n",
        "2 2 2\n1 1\n2 2 1 5\n",
        "2 2 2\n# comment\n1 1 1\n",
        "2 2 2\n# 1 1\n1 1 1\n",
        "2 2 3\n1 1 1\n\n2 2 1\n",
        "2 2 1\n1 1 abc\n",
        "2 2 1\n1.5 1 1\n",
        "2 2 1\n0 1 1\n",
        "2 2 1\n1 0 1\n",
        "2 2 1\n3 1 1\n",
        "2 2 1\n1 3 1\n",
        "a b c\n",
        "-1 2 0\n",
    ], ids=["empty", "header-2-fields", "lines-of-2-and-4-tokens", "comment-line",
            "comment-line-3-fields", "blank-line", "non-numeric-value",
            "non-integer-index", "row-0", "col-0", "row-too-large", "col-too-large",
            "non-integer-header", "negative-header"])
    def test_malformed_input_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad.txt"):
            read_triplet(path)

    def test_integer_tokens_read_as_float64(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 3 3\n1 1 1\n1 3 -4\n2 2 7\n")
        mat = read_triplet(path)
        assert mat.dtype == np.float64
        npt.assert_array_equal(mat.toarray(), [[1.0, 0.0, -4.0], [0.0, 7.0, 0.0]])

    def test_empty_matrix_is_float64(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 3 0\n")
        mat = read_triplet(path)
        assert mat.dtype == np.float64 and mat.shape == (2, 3) and mat.nnz == 0

    def test_one_loadtxt_call_per_file(self, tmp_path, monkeypatch, cx443):
        loadtxt, calls = np.loadtxt, []

        def counting(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        for name, matrix in cx443.named_matrices().items():
            path = tmp_path / f"{name}.txt"
            write_triplet(path, matrix)
            calls.clear()
            read_triplet(path)
            assert len(calls) == 1, name

    def test_one_float_token_makes_float64(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2 2\n1 1 1\n2 2 1.5\n")
        mat = read_triplet(path)
        assert mat.dtype == np.float64
        npt.assert_array_equal(mat.toarray(), [[1.0, 0.0], [0.0, 1.5]])

    def test_float_tokens_not_truncated_by_lenient_loadtxt(self, tmp_path, monkeypatch):
        # numpy 1.23-1.26 accept float tokens in integer fields unless their
        # DeprecationWarning is raised as an error
        monkeypatch.setattr(np, "loadtxt", _loadtxt_truncating_floats(np.loadtxt))
        path = tmp_path / "m.txt"
        path.write_text("2 2 4\n1 1 1.0\n1 2 0.3333333333333333\n2 1 1e300\n2 2 nan\n")
        mat = read_triplet(path)
        assert mat.dtype == np.float64
        npt.assert_array_equal(mat.toarray(), [[1.0, 1 / 3], [1e300, np.nan]])
        path.write_text("2 2 1\n1.5 1 1\n")
        with pytest.raises(ValueError, match="m.txt"):
            read_triplet(path)

    @pytest.mark.parametrize("data", [b"2 2 1\n1 1 \xff\n", b"2 \xff2 1\n1 1 1\n",
                                      b"2 2 1\n1 1 1\n\xc3",
                                      b"3 3 1\n1 1 1\n" + b"\n" * 40 + b"\xc3",
                                      b"2 2 1\n1 1 1\n" + b"\n" * (1 << 20) + b"\xff\n"],
                             ids=["in-an-entry", "in-the-header", "at-the-end",
                                  "closing-53-bytes", "past-the-first-read"])
    def test_undecodable_byte_names_the_file(self, tmp_path, data):
        # the position counts from the start of the file, as a decode of
        # the whole file reports it
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        assert str(whole.value).startswith("'utf-8' codec can't decode byte 0x")
        with pytest.raises(ValueError) as err:
            read_triplet(path)
        assert str(err.value) == f"{path}: {whole.value}"

    def test_file_that_decodes_on_a_second_read_keeps_the_readers_message(self, tmp_path):
        # the second read, which counts positions from the start, ends at
        # the end of the file
        path = tmp_path / "m.txt"
        path.write_text("2 2 1\n1 1 1\n")
        error = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
        assert iotools._decode_error(path, error) == str(error)

    def test_decode_error_inside_loadtxt_names_the_file(self, tmp_path, monkeypatch):
        def undecodable(fname, dtype, **kwargs):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        monkeypatch.setattr(np, "loadtxt", undecodable)
        path = tmp_path / "m.txt"
        path.write_text("2 2 1\n1 1 1\n")
        with pytest.raises(ValueError, match="m.txt: 'utf-8' codec can't decode"):
            read_triplet(path)

    def test_duplicates_summed_into_csr(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2 3\n2 1 1\n1 2 2\n2 1 5\n")
        mat = read_triplet(path)
        assert mat.format == "csr"
        npt.assert_array_equal(mat.toarray(), [[0, 2], [6, 0]])


def _loadtxt_truncating_floats(loadtxt):
    """`np.loadtxt` as numpy 1.23-1.26 parse a float token into an integer
    field: one DeprecationWarning and a truncated value. Only a warning
    raised as an error fails the parse, and it surfaces as a ValueError."""
    def lenient(fname, dtype, **kwargs):
        text = fname.read()
        try:
            return loadtxt(io.StringIO(text), dtype=dtype, **kwargs)
        except ValueError:
            as_float = np.dtype([(name, np.float64) for name in dtype.names])
            values = loadtxt(io.StringIO(text), dtype=as_float, **kwargs)
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string to int64") from exc
            with np.errstate(invalid="ignore"):
                return values.astype(dtype)
    return lenient


def _per_entry_triplet_text(matrix):
    """Byte oracle: the one-line-per-entry formatter `write_triplet` replaced."""
    csr = matrix.tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    csr.eliminate_zeros()
    coo = csr.tocoo()
    lines = [f"{csr.shape[0]} {csr.shape[1]} {coo.nnz}"]
    for i, j, v in zip(coo.row, coo.col, coo.data):
        lines.append(f"{i + 1} {j + 1} {float(v)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("matrix", [
    sparse.csr_array(np.array([[0.1, 0.0, -2.5e-17], [1e300, 3.0, 5e-324]])),
    sparse.csr_array(np.array([[np.nan, np.inf], [-np.inf, -0.5]])),
    sparse.csr_array(np.array([[0.1, 0.0], [1.0, 2.5]], dtype=np.float32)),
    sparse.csr_array(np.array([[-3, 0, 2**62], [0, 1, 0]], dtype=np.int64)),
    sparse.csr_array(np.array([[7, 0], [0, -1]], dtype=np.int32)),
    sparse.coo_array(([1.5, 2.0, 0.0], ([1, 1, 0], [0, 0, 1])), shape=(2, 3)),
    sparse.csr_array((3, 4), dtype=np.float64),
], ids=["floats", "non-finite", "float32", "int64", "int32", "duplicates-and-zero",
        "empty"])
def test_write_matches_per_entry_oracle(tmp_path, matrix):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    write_triplet(first, matrix)
    assert first.read_text() == _per_entry_triplet_text(matrix)
    write_triplet(second, read_triplet(first))
    assert second.read_bytes() == first.read_bytes()


def test_triplet_round_trip_at_scale(tmp_path):
    cx = build_complex(TorusComplexSpec(degrees=(2, 2, 2), dims=(16, 16, 8)),
                       ebar_perturbation=1e-3)
    matrices = cx.named_matrices()
    assert len(matrices) == 18
    for name, matrix in matrices.items():
        path = tmp_path / f"{name}.txt"
        write_triplet(path, matrix)
        assert path.read_text() == _per_entry_triplet_text(matrix), name
        again, expected = read_triplet(path), matrix.tocsr()
        assert again.dtype == expected.dtype, name
        assert np.array_equal(again.indptr, expected.indptr), name
        assert np.array_equal(again.indices, expected.indices), name
        assert again.data.tobytes() == expected.data.tobytes(), name


def _straddling_matrix(nnz, kind):
    """A matrix whose canonical form has `nnz` entries, 7 to a row, so that
    rows straddle the writer's runs; `kind` names its storage: float64
    CSR, float32 or integer data, or COO with split duplicates and stored
    zeros."""
    rng = np.random.default_rng(nnz)
    at = np.arange(nnz)
    rows, cols = at // 7, (at % 7) * 3 + (at // 7) % 3
    shape = (rows[-1] + 2, 24)
    if kind in ("int64", "int32"):
        vals = rng.integers(1, 1000, nnz) * rng.choice([-1, 1], nnz)
        vals[nnz // 2] = 2**30
        return sparse.csr_array((vals.astype(kind), (rows, cols)), shape=shape)
    vals = rng.standard_normal(nnz)
    vals[::5] = 0.25 * rng.integers(1, 9, vals[::5].size)  # values that repeat
    if kind == "float32":
        return sparse.csr_array((vals.astype(np.float32), (rows, cols)), shape=shape)
    if kind == "duplicates-and-zeros":
        # every third entry stored as two summands, v - 0.5 and 0.5, and a
        # stored zero in each row's last column
        split = at[::3]
        zeros = np.arange(rows[-1] + 1)
        return sparse.coo_array(
            (np.concatenate([vals - 0.5 * (at % 3 == 0), np.full(split.size, 0.5),
                             np.zeros(zeros.size)]),
             (np.concatenate([rows, rows[split], zeros]),
              np.concatenate([cols, cols[split], np.full(zeros.size, 23)]))), shape=shape)
    return sparse.csr_array((vals, (rows, cols)), shape=shape)


@pytest.mark.parametrize("nnz", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1],
                         ids=["C-1", "C", "C+1", "2C+1"])
@pytest.mark.parametrize("kind", ["float64", "float32", "int64", "int32",
                                  "duplicates-and-zeros"])
def test_write_matches_per_entry_oracle_across_runs(tmp_path, kind, nnz):
    matrix = _straddling_matrix(nnz, kind)
    text = _per_entry_triplet_text(matrix)
    assert text.count("\n") == nnz + 1
    path = tmp_path / "m.txt"
    write_triplet(path, matrix)
    assert path.read_text() == text
    again = read_triplet(path)
    write_triplet(path, again)
    assert path.read_text() == text


def test_csv_matches_per_row_oracle_across_runs():
    table = np.random.default_rng(3).standard_normal((2 * _CHUNK + 1, 4))
    table[::7, 0] = -0.0
    expected = _per_row_csv_text("a,b,c,d", table)
    assert _written_csv("a,b,c,d", table) == expected + "\n"


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# D1 at (32,32,16): 185,984 entries, a 2.9 MB file. Formatting every entry
# at once peaked at 28 MB, and parsing a copy of the text at 9.5x the CSR
# it returns.

def test_write_triplet_memory_is_bounded(tmp_path, complex_cache):
    matrix = complex_cache(dims=(32, 32, 16)).incidence.D1
    _, peak = _traced_peak(write_triplet, tmp_path / "D1.txt", matrix)
    assert peak <= 1e6, peak


def test_read_triplet_memory_is_bounded(tmp_path, complex_cache):
    matrix = complex_cache(dims=(32, 32, 16)).incidence.D1
    path = tmp_path / "D1.txt"
    write_triplet(path, matrix)
    again, peak = _traced_peak(read_triplet, path)
    stored = again.data.nbytes + again.indices.nbytes + again.indptr.nbytes
    assert peak <= 5 * stored, (peak, stored)
    assert (again != matrix).nnz == 0


_VALID_LINES = ["3 4 5", "1 1 0.5", "1 3 -2.0", "2 2 1e-300", "3 1 7.0", "3 4 nan"]
_VALID = sparse.csr_array(([0.5, -2.0, 1e-300, 7.0, np.nan], ([0, 0, 1, 2, 2], [0, 2, 1, 0, 3])),
                          shape=(3, 4))
_PADDING = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def _mutated_triplet_files(draw):
    """A valid triplet file's lines under up to four random edits, joined
    by LF or CRLF, with whitespace at either end, and maybe one byte that
    is not UTF-8."""
    lines = list(_VALID_LINES)
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["drop", "duplicate", "blank", "pad", "comment",
                                     "float-index", "extra-field"]))
        at = draw(st.integers(0, len(lines)))
        if edit == "blank":
            lines.insert(at, draw(_PADDING))
        elif at == len(lines):
            continue
        elif edit == "drop":
            del lines[at]
        elif edit == "duplicate":
            lines.insert(at, lines[at])
        elif edit == "pad":
            lines[at] = draw(_PADDING) + lines[at] + draw(_PADDING)
        elif edit == "comment":
            lines[at] = "#" + lines[at]
        elif edit == "float-index":
            lines[at] = lines[at].replace("1", "1.5", 1)
        else:
            lines[at] += " 9"
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(_PADDING) + newline.join(lines) + draw(st.sampled_from(["", newline]))
    data = (text + draw(_PADDING)).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9"])) + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(data=_mutated_triplet_files())
def test_read_triplet_fuzz_gives_a_matrix_or_names_the_file(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "m.txt"
    path.write_bytes(data)
    try:
        matrix = read_triplet(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return
    assert matrix.format == "csr" and matrix.dtype == np.float64


@settings(max_examples=100, deadline=None)
@given(newline=st.sampled_from(["\n", "\r\n"]), pads=st.lists(_PADDING, min_size=8, max_size=8),
       blank_ends=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_read_triplet_ignores_layout_whitespace(tmp_path_factory, newline, pads, blank_ends):
    # line endings, whitespace around the fields and blank lines before the
    # header or after the last entry do not change the matrix
    lines = [pads[k] + line + pads[k + 1] for k, line in enumerate(_VALID_LINES)]
    lines = [""] * blank_ends[0] + lines + [""] * blank_ends[1]
    path = tmp_path_factory.mktemp("layout") / "m.txt"
    path.write_bytes((newline.join(lines) + newline).encode())
    matrix = read_triplet(path)
    assert matrix.shape == _VALID.shape
    assert np.array_equal(matrix.toarray(), _VALID.toarray(), equal_nan=True)


def _per_row_csv_text(header, table):
    """Byte oracle: the one-row-at-a-time formatter `sample` replaced."""
    return "\n".join([header] + [",".join(map(repr, row)) for row in table.tolist()])


def _written_csv(header, table):
    """What :func:`write_csv` writes for the one table."""
    stream = io.StringIO()
    write_csv(stream, header, [table])
    return stream.getvalue()


def test_csv_text_matches_per_row_oracle():
    row = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1 + 0.2, -2.5e-17]
    table = np.array([row, row[::-1], row[1:] + row[:1]])
    assert _written_csv("a,b", table) == _per_row_csv_text("a,b", table) + "\n"
    assert _written_csv("a", table[:1, :1]) == _per_row_csv_text("a", table[:1, :1]) + "\n"


@pytest.mark.parametrize("level", [0, 1])
def test_sample_csv_matches_per_row_oracle(tmp_path, cx443, level, capsys):
    out = tmp_path / "samples.csv"
    smin = 0.01 if level else 0.0
    assert main(["sample", "--sizes", "4,4,3", "--level", str(level), "--basis", "2",
                 "--grid", "4,5,3", "--smin", str(smin), "--out", str(out)]) == 0
    t, s, r = np.meshgrid(np.linspace(0, 1, 3), np.linspace(smin, 1, 5),
                          np.linspace(0, 1, 4), indexing="ij")
    points = np.column_stack([r.ravel(), s.ravel(), t.ravel()])
    coeffs = np.zeros(cx443.counts.level_dim(level))
    coeffs[1] = 1.0
    xyz, values = cx443.pushforward(coeffs, points, level=level)
    header = "r,s,t,x,y,z," + ("v1,v2,v3" if level else "v1")
    expected = _per_row_csv_text(header, np.column_stack([points, xyz, values]))
    assert out.read_bytes() == (expected + "\n").encode()


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_sample_streams_the_grid_a_run_at_a_time(tmp_path, cx443, level, capsys):
    # a full run of grid points and a partial one, the same bytes on --out
    # and on stdout as the whole grid formatted row by row
    counts = (70, 9, 7)
    assert cli._SAMPLE_RUN < np.prod(counts) < 2 * cli._SAMPLE_RUN
    argv = ["sample", "--sizes", "4,4,3", "--level", str(level), "--basis", "3",
            "--grid", ",".join(map(str, counts)), "--smin", "0.01"]
    out = tmp_path / "samples.csv"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    t, s, r = np.meshgrid(*(np.linspace(lo, 1, n) for lo, n in zip((0, 0.01, 0), counts[::-1])),
                          indexing="ij")
    points = np.column_stack([r.ravel(), s.ravel(), t.ravel()])
    coeffs = np.zeros(cx443.counts.level_dim(level))
    coeffs[2] = 1.0
    xyz, values = cx443.pushforward(coeffs, points, level=level)
    header = "r,s,t,x,y,z," + ("v1,v2,v3" if level in (1, 2) else "v1")
    expected = _per_row_csv_text(header, np.column_stack([points, xyz, values])) + "\n"
    assert out.read_bytes() == expected.encode()
    assert capsys.readouterr().out == expected


# ------------------------------- bundles ----------------------------------------

def test_bundle_round_trip(tmp_path, cx443):
    cfg = ComplexConfig.from_dict({"degrees": [2, 2, 2], "dims": [4, 4, 3]})
    out = write_bundle(tmp_path / "bundle", cx443, cfg)
    assert (out / "dimensions.json").exists()
    reloaded = ComplexConfig.from_dict(load_raw_config(out))
    assert reloaded.dims == (4, 4, 3)
    for name, matrix in cx443.named_matrices().items():
        again = read_triplet(out / "matrices" / f"{name}.txt")
        assert (again != matrix.tocsr()).nnz == 0
    net = json.loads((out / "control_net_F.json").read_text())
    npt.assert_array_equal(np.array(net), cx443.polar_map.control_points)


# SHA-256 of the control-net files of a bundle: a change to any control
# point, to the point order or to the number formatting shows here.
PINNED_NET_DIGESTS = {
    ((2, 2, 2), (5, 6, 4)): {
        "control_net_F.json": "73feb499d419b524d3792fb7b39929ca73050d47802c8a0c48ca1a52533c15d2",
        "control_net_G.json": "2fb0579a15a3615b2b7f980a1ff30944ca1c9ac5cc6e325688bbefe4c90d820c",
    },
    ((3, 3, 3), (7, 7, 5)): {
        "control_net_F.json": "dd7ed4fcc6f437026eb8e7567aefb233ff4b1691c6241f55d895380afd1f62d6",
        "control_net_G.json": "32f56944d0058c1fe95d74c0a873afaf6dcacc8b2b432eebe6d3119aec9e0a05",
    },
}


@pytest.mark.parametrize("degrees,dims", list(PINNED_NET_DIGESTS))
def test_control_net_bytes_pinned(degrees, dims, complex_cache, tmp_path):
    cfg = ComplexConfig.from_dict({"degrees": list(degrees), "dims": list(dims)})
    out = write_bundle(tmp_path / "bundle", complex_cache(degrees=degrees, dims=dims), cfg)
    for name, digest in PINNED_NET_DIGESTS[(degrees, dims)].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# --------------------------------- CLI ------------------------------------------

class TestCli:
    def test_one_parser_serves_consecutive_commands(self, tmp_path, capsys):
        runs = [
            (["export", "--sizes", "4,4,3", "--out", str(tmp_path / "e"), "D0"], 0),
            (["verify", "--sizes", "4,4,3", "--drop-row", "D1:5",
              "--out", str(tmp_path / "r.json")], 1),
            (["export", "--sizes", "4,4,3", "NOPE"], 2),
            (["sample", "--sizes", "4,4,3", "--level", "1", "--basis", "2",
              "--grid", "2,2,2", "--smin", "0.1"], 0),
            (["build", "--sizes", "4,4,3", "--out", str(tmp_path / "b")], 0),
        ]
        first = []
        for argv, code in runs:
            assert main(argv) == code
            first.append(capsys.readouterr())
        # the same commands again, in another order, on the same parser
        for (argv, code), out in reversed(list(zip(runs, first))):
            assert main(argv) == code
            assert capsys.readouterr() == out
        assert cli.build_parser() is cli.build_parser()

    def test_build_and_verify(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert main(["build", "--sizes", "4,4,3", "--out", str(bundle)]) == 0
        report_path = tmp_path / "report.json"
        code = main(["verify", "--bundle", str(bundle),
                     "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["suites"]["cohomology"]["dims"] == [1, 1, 0, 0]
        # version 2: the cohomology suite gained rank_method and lost the
        # per-frequency records and kunneth_ok; version 3: it lost euler_ok,
        # and the smoothness suite reads C1 algebraically
        assert report["schema_version"] == SCHEMA_VERSION == 3
        cohomology = report["suites"]["cohomology"]
        assert (cohomology["method"], cohomology["rank_method"]) == ("kunneth", "certificate")
        assert not {"frequencies", "kunneth_ok", "euler_ok"} & set(cohomology)
        smoothness = report["suites"]["smoothness_probe"]
        assert set(smoothness) == {"pass", "method", "ring0_spread", "c1_affine_residual",
                                   "bound", "worst"}
        assert smoothness["method"] == "algebraic"
        assert smoothness["c1_affine_residual"] <= smoothness["bound"] < 1e-13
        assert set(report["suites"]) == {
            "dimensions", "dta", "complex_property", "commutation",
            "cohomology", "partition_of_unity", "smoothness_probe",
        }

    def test_verify_other_sizes(self, capsys):
        assert main(["verify", "--sizes", "5,6,4"]) == 0

    def test_verify_is_deterministic(self, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            assert main(["verify", "--sizes", "4,4,3", "--out", str(p)]) == 0
        reports = [json.loads(p.read_text()) for p in paths]
        for rep in reports:
            rep.pop("timings")
        assert reports[0] == reports[1]

    def test_verify_negative_control_perturb(self, tmp_path, capsys):
        code = main(["verify", "--sizes", "4,4,3", "--perturb-ebar", "1e-3",
                     "--out", str(tmp_path / "bad.json")])
        assert code == 1
        report = json.loads((tmp_path / "bad.json").read_text())
        assert report["passed"] is False
        assert report["suites"]["commutation"]["worst"] > 1e-4

    def test_verify_negative_control_drop_row(self, tmp_path, capsys):
        code = main(["verify", "--sizes", "4,4,3", "--drop-row", "D1:5",
                     "--out", str(tmp_path / "bad.json")])
        assert code == 1

    @pytest.mark.parametrize("drop,code", [("D1:5", 1), ("E100:1", 1), ("E100:5", 2),
                                           ("D1:5x", 2), ("D1", 2)])
    def test_drop_row_must_inject_a_fault(self, drop, code, capsys):
        # row 5 of E100 is empty at (4,4,3): dropping it would change nothing;
        # a row that is no integer names the option's form
        assert main(["verify", "--sizes", "4,4,3", "--drop-row", drop]) == code
        if code == 2:
            expected = ("row 5 of E100 is already all zero" if drop == "E100:5"
                        else f"--drop-row MATRIX:ROW needs an integer ROW, got {drop!r}")
            assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify"], ["sample", "--level", "0", "--basis", "1",
                                                      "--grid", "2,2,2"], ["export", "D0"]],
                             ids=["verify", "sample", "export"])
    def test_config_and_bundle_together_is_a_usage_error(self, command, tmp_path, capsys):
        for name, dims in (("a", "4,4,3"), ("b", "5,6,4")):
            assert main(["build", "--sizes", dims, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        argv = [command[0], "--config", str(tmp_path / "a"), "--bundle", str(tmp_path / "b"),
                *command[1:]]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.err == "error: give at most one of --config and --bundle\n" and not out.out

    def test_rho_bar_floor_rejected(self, capsys):
        assert main(["verify", "--sizes", "4,4,3", "--rho-bar", "2"]) == 2

    def test_degree_dependent_size_floor_names_degrees_and_dims(self, capsys):
        # degree 4 in s needs ns >= 5 for two distinct knots
        assert main(["verify", "--degrees", "2,4,2", "--sizes", "3,4,3"]) == 2
        assert capsys.readouterr().err == (
            "error: size floors violated: need degrees >= (2, 2, 2) and dims >= (3, 5, 3), "
            "got degrees (2, 4, 2) and dims (3, 4, 3)\n")

    @pytest.mark.parametrize("field,flags,config", [
        ("rho_bar", ["--rho-bar", "inf"], None),
        ("rho_bar", ["--rho-bar", "nan"], None),
        # JSON has no infinity; 1e400 overflows to it when parsed
        ("rho_bar", [], '{"degrees": [2, 2, 2], "dims": [4, 4, 3], "rho_bar": 1e400}'),
        ("lengths", ["--lengths", "1,1,inf"], None),
        ("lengths", ["--lengths", "nan,1,1"], None),
        ("lengths", [], '{"degrees": [2, 2, 2], "dims": [4, 4, 3], "lengths": [1, -1e400, 1]}'),
        # above the supported ceiling the C1 check's resolution, ulp(max|F|)
        # relative to F's ring-1 steps, passes the scale of what it bounds
        ("rho_bar", ["--rho-bar", "1e15"], None),
    ])
    def test_non_finite_geometry_rejected(self, field, flags, config, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            flags = flags + ["--config", "cfg.json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["build", "--sizes", "4,4,3", *flags]) == 2
        err = capsys.readouterr().err
        assert field in err and "must be finite" in err
        assert not (tmp_path / "polar_derham_bundle").exists()

    def test_sample_level0_basis(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = main(["sample", "--sizes", "4,4,3", "--level", "0",
                     "--basis", "1", "--grid", "5,5,5", "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out, skiprows=1, delimiter=",")
        assert rows.shape == (125, 7)
        assert rows[:, 6].min() >= 0.0 and rows[:, 6].max() <= 1.0
        # deterministic row order: t-major, then s, then r
        r_col, s_col, t_col = rows[:, 0], rows[:, 1], rows[:, 2]
        assert np.all(np.diff(t_col) >= 0)
        npt.assert_allclose(r_col[:5], np.linspace(0, 1, 5))
        assert np.all(s_col[:5] == 0.0)

    def test_sample_partition_of_unity(self, tmp_path, cx443):
        # sum over all level-0 basis columns equals 1 at every grid point
        total = None
        for ell in range(1, cx443.counts.n0 + 1):
            out = tmp_path / f"b{ell}.csv"
            assert main(["sample", "--sizes", "4,4,3", "--level", "0",
                         "--basis", str(ell), "--grid", "3,3,2",
                         "--out", str(out)]) == 0
            vals = np.loadtxt(out, skiprows=1, delimiter=",")[:, 6]
            total = vals if total is None else total + vals
        npt.assert_allclose(total, 1.0, atol=1e-12)

    def test_sample_level1_vector_output(self, tmp_path, cx443):
        coeffs = tmp_path / "g.txt"
        rng = np.random.default_rng(61)
        f = rng.standard_normal(cx443.counts.n0)
        np.savetxt(coeffs, cx443.grad(f).data)
        out = tmp_path / "g.csv"
        code = main(["sample", "--sizes", "4,4,3", "--level", "1",
                     "--coeffs", str(coeffs), "--grid", "3,3,3",
                     "--smin", "0.01", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "r,s,t,x,y,z,v1,v2,v3"
        rows = np.loadtxt(out, skiprows=1, delimiter=",")
        assert rows.shape == (27, 9)
        # grid avoids the polar face for vector levels, so s starts at s_min
        assert rows[:, 1].min() > 0.0

    def test_tol_flag_is_honored(self, capsys):
        # float-noise residuals cannot meet an absurdly tight tolerance
        assert main(["verify", "--sizes", "4,4,3", "--tol", "1e-30"]) == 1

    @pytest.mark.parametrize("tol,code", [("0", 1), ("-1", 2), ("nan", 2)])
    def test_tol_zero_honored_and_invalid_rejected(self, tol, code, capsys):
        # 0 is a tolerance no float-noise residual meets, not "use the default"
        assert main(["verify", "--sizes", "4,4,3", "--tol", tol]) == code
        if code == 2:
            assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("amount", ["nan", "inf", "-inf"])
    def test_non_finite_perturbation_rejected(self, amount, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--sizes", "4,4,3", f"--perturb-ebar={amount}",
                     "--out", str(out)]) == 2
        assert "--perturb-ebar" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_rejects_polar_face_for_densities(self, capsys):
        code = main(["sample", "--sizes", "4,4,3", "--level", "3",
                     "--basis", "1", "--grid", "3,3,3", "--smin", "0"])
        assert code == 2
        assert "s_min" in capsys.readouterr().err

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_sample_default_smin_is_valid_at_every_level(self, level, tmp_path):
        # the s-grid starts at 0 for scalars and at the singularity floor above
        out = tmp_path / "samples.csv"
        assert main(["sample", "--sizes", "4,4,3", "--level", str(level), "--basis", "2",
                     "--grid", "3,3,3", "--out", str(out)]) == 0
        s = np.loadtxt(out, skiprows=1, delimiter=",")[:, 1]
        assert s.min() == (S_MIN_FACTOR if level else 0.0)
        npt.assert_array_equal(np.unique(s), np.linspace(s.min(), 1.0, 3))

    def test_sample_coeff_length_mismatch(self, tmp_path, capsys):
        coeffs = tmp_path / "c.txt"
        np.savetxt(coeffs, np.ones(7))
        code = main(["sample", "--sizes", "4,4,3", "--level", "0",
                     "--coeffs", str(coeffs), "--grid", "2,2,2"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {coeffs}: 7 values, level 0 needs 33\n"

    @pytest.mark.parametrize("values", [[float("nan"), 1.0], [1.0, float("inf")]])
    def test_sample_rejects_non_finite_coefficients(self, values, tmp_path, capsys):
        coeffs = tmp_path / "c.txt"
        np.savetxt(coeffs, np.resize(values, 33))  # n0 at (4,4,3)
        code = main(["sample", "--sizes", "4,4,3", "--level", "0",
                     "--coeffs", str(coeffs), "--grid", "2,2,2"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(coeffs) in err and "non-finite" in err

    @pytest.mark.parametrize("text", ["", "# no values\n", "1.0\na\n", "1.0 a\n"],
                             ids=["empty", "comment-only", "non-numeric", "non-numeric-field"])
    def test_sample_rejects_unparsable_coefficient_files(self, text, tmp_path, capsys):
        coeffs = tmp_path / "c.txt"
        coeffs.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sample", "--sizes", "4,4,3", "--level", "0",
                         "--coeffs", str(coeffs), "--grid", "2,2,2"])
        assert code == 2
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {coeffs}: ") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("argv", [
        ["build", "--sizes", "4,4,3", "--out", "{blocked}"],
        ["export", "--sizes", "4,4,3", "--out", "{blocked}", "D0"],
        ["verify", "--sizes", "4,4,3", "--out", "{blocked}.json"],
        ["sample", "--sizes", "4,4,3", "--level", "0", "--basis", "1", "--grid", "2,2,2",
         "--out", "{blocked}.csv"],
        ["sample", "--sizes", "4,4,3", "--level", "0", "--coeffs", "{directory}",
         "--grid", "2,2,2"],
    ])
    def test_path_the_os_refuses_is_a_usage_error(self, argv, tmp_path, capsys):
        # a path below a regular file, or a directory read as a file
        (tmp_path / "afile").write_text("")
        paths = {"blocked": str(tmp_path / "afile" / "x"), "directory": str(tmp_path)}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_export_all(self, tmp_path, capsys):
        out = tmp_path / "mats"
        assert main(["export", "--sizes", "4,4,3", "--out", str(out), "ALL"]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 18
        assert "E111.txt" in files
        # the volume selector's entries are all 1, written as float64
        text = (out / "E111.txt").read_text().splitlines()
        assert all(line.split()[2] == "1.0" for line in text[1:])

    def test_export_d0_row_count(self, tmp_path, capsys):
        out = tmp_path / "mats"
        assert main(["export", "--sizes", "4,4,3", "--out", str(out), "D0"]) == 0
        header = (out / "D0.txt").read_text().splitlines()[0]
        assert header.split()[0] == "87"

    @pytest.mark.parametrize("names,lifts", [(["D0"], 1), (["E101", "D100", "H0_t"], 2)])
    def test_export_forms_only_the_names_asked_for(self, tmp_path, capsys, monkeypatch,
                                                   names, lifts):
        # the build lifts nothing; each D, E or stencil asked for is one lift
        lifted, lift = [], tensor.kron_lift
        monkeypatch.setattr(tensor, "kron_lift", lambda *args: lifted.append(1) or lift(*args))
        assert main(["export", "--sizes", "4,4,3", "--out", str(tmp_path), *names]) == 0
        assert len(lifted) == lifts
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.txt" for n in names)

    def test_export_unknown_name(self, capsys):
        assert main(["export", "--sizes", "4,4,3", "NOPE"]) == 2
        assert "NOPE" in capsys.readouterr().err

    def test_config_file_defaults_echoed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degrees": [2, 2, 2], "dims": [4, 4, 3]}))
        bundle = tmp_path / "bundle"
        assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
        echoed = json.loads((bundle / "config.json").read_text())
        assert echoed["rho_bar"] == 3.0
        assert "rho_bar" in echoed["applied_defaults"]

    def test_config_file_dims_respected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degrees": [2, 2, 2], "dims": [5, 6, 4]}))
        bundle = tmp_path / "bundle"
        assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
        echoed = json.loads((bundle / "config.json").read_text())
        assert echoed["dims"] == [5, 6, 4]

    @pytest.mark.parametrize("key,value", [
        ("degrees", 2),
        ("degrees", [[2], 2, 2]),
        ("rho_bar", [3]),
        ("lengths", 1),
        ("rank_tol", "abc"),
        ("rank_tol", -1),
        ("rank_tol", 0),
        ("rank_tol", float("nan")),
        ("rank_tol", float("inf")),
        ("out_dir", 5),
    ])
    def test_malformed_config_types(self, key, value, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degrees": [2, 2, 2], "dims": [4, 4, 3], key: value}))
        assert main(["build", "--config", str(cfg)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "polar_derham_bundle").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("degrees", [2.9, 2, 2], "config 'degrees': expected an integer, got 2.9"),
        ("dims", [4, "4", 3], "config 'dims': expected an integer, got '4'"),
        ("lengths", [1, 1], "config 'lengths' must be a triple, got [1, 1]"),
        ("rho_bar", True, "config 'rho_bar': expected a number, got True"),
    ])
    def test_config_number_messages(self, key, value, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degrees": [2, 2, 2], "dims": [4, 4, 3], key: value}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("data", [b"", b'{"degrees": [2, 2, 2], \xff}'],
                             ids=["empty", "not-utf-8"])
    def test_unreadable_config_names_the_file(self, data, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        assert main(["verify", "--config", str(cfg)]) == 2
        assert f"error: {cfg}: " in capsys.readouterr().err

    def test_retired_rank_tol_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degrees": [2, 2, 2], "dims": [4, 4, 3], "rank_tol": 1e-8}))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert "unknown config keys: ['rank_tol']" in capsys.readouterr().err

    def test_config_echo_with_null_rank_tol_still_verifies(self, tmp_path, capsys):
        # bundles written before the key was retired echo it as null
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "degrees": [2, 2, 2], "distinct_knots": [5, 3, 4], "dims": [4, 4, 3],
            "rho_bar": 3.0, "lengths": [1.0, 1.0, 1.0], "rank_tol": None, "out_dir": None,
            "applied_defaults": ["rho_bar", "lengths", "rank_tol", "out_dir"],
        }))
        report = tmp_path / "report.json"
        assert main(["verify", "--bundle", str(tmp_path), "--out", str(report)]) == 0
        assert "rank_tol" not in json.loads(report.read_text())["config"]


@pytest.mark.parametrize("options", [
    ["--level", "0", "--basis", "1", "--grid", "0,1,1"],
    ["--level", "0", "--basis", "1", "--grid", "2,2"],
    ["--level", "0", "--basis", "0", "--grid", "2,2,2"],
    ["--level", "0", "--basis", "53065", "--grid", "2,2,2"],  # n0 + 1 at (48,48,24)
    ["--level", "0", "--grid", "2,2,2"],
    ["--level", "0", "--basis", "1", "--coeffs", "{coeffs}", "--grid", "2,2,2"],
    ["--level", "0", "--coeffs", "{coeffs}", "--grid", "2,2,2"],
    ["--level", "0", "--basis", "1", "--grid", "2,2,2", "--smin", "1.0"],
    ["--level", "0", "--basis", "1", "--grid", "2,2,2", "--smin", "-0.5"],
    ["--level", "3", "--basis", "1", "--grid", "2,2,2", "--smin", "0"],
], ids=["grid-zero", "grid-pair", "basis-zero", "basis-past-n0", "neither", "both",
        "coeff-count", "smin-at-end", "smin-negative", "level3-at-the-polar-curve"])
def test_sample_checks_every_option_before_it_builds(options, tmp_path, monkeypatch, capsys):
    def build_complex(*args, **kwargs):
        raise AssertionError("sample built the complex before checking its options")

    monkeypatch.setattr(cli, "build_complex", build_complex)
    coeffs = tmp_path / "c.txt"
    np.savetxt(coeffs, np.ones(7))
    argv = ["sample", "--sizes", "48,48,24", *(o.format(coeffs=coeffs) for o in options)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
