"""Configuration files, number text and bundle layout.

Matrices travel as plain-text coordinate triplets ("rows cols nnz"
header, then 1-based "i j value" lines in row-major order) so that a
build -> export -> import round trip is bit-identical; sampled fields as
CSV and field coefficients as one value per line; configs and reports
are JSON.

Number text takes bounded memory whatever the size of the file: every
writer formats and writes runs of `_CHUNK` rows, and `read_triplet`
counts and parses the open file, never a copy of its text, so that
reading peaks at a few times the CSR matrix it returns.
"""

import codecs
import io
import json
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy import sparse

from .bsplines import csr_from_keys, csr_from_triplet, triplet
from .tensor import dims_of_distinct_knots, distinct_knot_counts
from .torus import MATRIX_NAMES, TorusComplexSpec

__all__ = [
    "ComplexConfig",
    "csv_text",
    "write_csv",
    "read_coefficients",
    "write_triplet",
    "read_triplet",
    "write_bundle",
]

# The keys a config may omit, in `applied_defaults` order: the spec's, then out_dir.
_CONFIG_DEFAULTS = {
    **{f.name: f.default for f in fields(TorusComplexSpec) if f.default is not MISSING},
    "out_dir": None,
}


def _checked(key, value, kind):
    """A config number as `kind` (int or float), or a ValueError naming `key`."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        wanted = "an integer" if kind is int else "a number"
        raise ValueError(f"config {key!r}: expected {wanted}, got {value!r}")
    return kind(value)


def _checked_triple(key, value, kind):
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValueError(f"config {key!r} must be a triple, got {value!r}")
    return tuple(_checked(key, v, kind) for v in value)


@dataclass
class ComplexConfig:
    """User-facing build parameters.

    Either `distinct_knots` (per-direction distinct knot values) or
    `dims` (reduced basis counts) specifies the sizes; whichever is given
    is converted through the uniform-open-knot relation and both are
    echoed in reports.
    """

    degrees: tuple
    distinct_knots: tuple
    rho_bar: float
    lengths: tuple
    out_dir: str | None = None
    applied_defaults: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        raw = {k: v for k, v in raw.items() if k != "applied_defaults"}
        unknown = set(raw) - {
            "degrees", "distinct_knots", "dims", "rho_bar", "lengths", "out_dir",
        }
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "degrees" not in raw:
            raise ValueError("config is missing 'degrees'")
        degrees = _checked_triple("degrees", raw["degrees"], int)
        distinct = None
        if "distinct_knots" in raw:
            distinct = _checked_triple("distinct_knots", raw["distinct_knots"], int)
        if "dims" in raw:
            from_dims = distinct_knot_counts(degrees, _checked_triple("dims", raw["dims"], int))
            if distinct is not None and distinct != from_dims:
                raise ValueError(
                    f"'distinct_knots' {distinct} and 'dims' {tuple(raw['dims'])} "
                    "disagree"
                )
            distinct = from_dims
        if distinct is None:
            raise ValueError("config needs 'distinct_knots' or 'dims'")
        applied = [k for k in _CONFIG_DEFAULTS if k not in raw]
        raw = {**_CONFIG_DEFAULTS, **raw}
        if raw["out_dir"] is not None and not isinstance(raw["out_dir"], str):
            raise ValueError(f"config 'out_dir' must be a string, got {raw['out_dir']!r}")
        return cls(
            degrees=degrees,
            distinct_knots=distinct,
            rho_bar=_checked("rho_bar", raw["rho_bar"], float),
            lengths=_checked_triple("lengths", raw["lengths"], float),
            out_dir=raw["out_dir"],
            applied_defaults=applied,
        )

    @property
    def dims(self):
        return dims_of_distinct_knots(self.degrees, self.distinct_knots)

    def to_spec(self):
        return TorusComplexSpec(
            degrees=self.degrees,
            dims=self.dims,
            rho_bar=self.rho_bar,
            lengths=self.lengths,
        )

    def to_dict(self):
        return {
            "degrees": list(self.degrees),
            "distinct_knots": list(self.distinct_knots),
            "dims": list(self.dims),
            "rho_bar": self.rho_bar,
            "lengths": list(self.lengths),
            "out_dir": self.out_dir,
            "applied_defaults": list(self.applied_defaults),
        }


# ============================== number text ==================================
# Matrix entries, sampled values and field coefficients are float64 in
# text, written as their shortest round-tripping repr, a run of _CHUNK rows
# at a time; a matrix file is read by one np.loadtxt on the open file.

_CHUNK = 4096  # rows per formatted run
_READ_CHARS = 1 << 20  # characters per read while counting a triplet file's lines

_ENTRIES = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _repr_tokens(values):
    """The shortest round-tripping `repr` of each value of the array
    `values` as float64, in C order, as a list. Each distinct bit pattern
    is formatted once, so -0.0 and 0.0 keep their own repr."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64).ravel()
    distinct, which = np.unique(bits, return_inverse=True)
    tokens = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return tokens[which].tolist()


def _runs(line, n, fields, sep=""):
    """The text ``sep.join(line % row for row in rows)`` of `n` rows, as
    consecutive pieces of at most _CHUNK rows; ``fields(start, stop)``
    lists the fields of rows start..stop-1, row after row."""
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        text = sep.join([line] * (stop - start)) % tuple(fields(start, stop))
        yield sep + text if start else text


def _table_runs(line, table, sep):
    """:func:`_runs` over the rows of the 2-D array `table`, each value its
    `repr` token."""
    return _runs(line, len(table), lambda start, stop: _repr_tokens(table[start:stop]), sep)


def csv_text(header, table):
    """The header line, then one line per row of the 2-D array `table`:
    its values' `repr` tokens, comma-separated."""
    stream = io.StringIO()
    write_csv(stream, header, table)
    return stream.getvalue()[:-1]


def write_csv(stream, header, tables):
    """Write :func:`csv_text` and a final newline to the text `stream`, a
    run of rows at a time.  `tables` is one 2-D array or an iterable of
    nonempty ones, whose rows follow each other as those of one table."""
    stream.write(f"{header}\n")
    for table in [tables] if isinstance(tables, np.ndarray) else tables:
        stream.writelines(_table_runs(",".join(["%s"] * table.shape[1]), table, "\n"))
        stream.write("\n")


def read_coefficients(path):
    """The float64 values of a coefficient file, one per line (`#` starts
    a comment); a file without values, with a token that does not parse
    or with a non-finite value raises ValueError naming the file."""
    with warnings.catch_warnings():
        # an empty file is reported below, not as loadtxt's UserWarning
        warnings.simplefilter("ignore", UserWarning)
        try:
            values = np.loadtxt(path, dtype=np.float64, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not values.size:
        raise ValueError(f"{path}: no coefficients")
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: holds non-finite values")
    return values


def _is_canonical(matrix):
    """Whether `matrix` is float64 CSR with sorted, distinct and nonzero
    entries: the form `write_triplet` writes, needing no copy."""
    return (sparse.issparse(matrix) and matrix.format == "csr"
            and matrix.dtype == np.float64 and matrix.has_canonical_format
            and bool((matrix.data != 0).all()))


def write_triplet(path, matrix):
    """Write a sparse matrix as 1-based row-major coordinate triplets, each
    value as the `repr` of its float64; duplicates are summed and stored
    zeros dropped first."""
    if not _is_canonical(matrix):
        matrix = csr_from_triplet(triplet(matrix), matrix.shape)
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data

    def fields(start, stop):
        # the 1-based rows of the first and the last entry, and each row's
        # entries among start..stop-1
        first, last = np.searchsorted(indptr, [start, stop - 1], side="right")
        counts = np.diff(np.clip(indptr[first - 1:last + 1], start, stop))
        out = [None] * (3 * (stop - start))
        out[0::3] = np.repeat(np.arange(first, last + 1), counts).tolist()
        out[1::3] = (indices[start:stop] + 1).tolist()
        out[2::3] = _repr_tokens(data[start:stop])
        return out

    with open(path, "w") as handle:
        handle.write(f"{matrix.shape[0]} {matrix.shape[1]} {data.size}\n")
        handle.writelines(_runs("%d %d %s\n", data.size, fields))


def _first_malformed_line(text):
    """The first line of the open file `text` without three tokens, or
    None; blank lines after the last token do not count, nor does that
    line's trailing whitespace."""
    lines = (line for run in text for line in run.splitlines())
    blank = None
    for line in lines:
        tokens = len(line.split())
        if tokens and blank is not None:
            return blank
        if not tokens:
            blank = line if blank is None else blank
        elif tokens != 3:
            return line if any(rest.strip() for rest in lines) else line.rstrip()
    return None


def _decode_error(path, error):
    """The message of the file's first UTF-8 decode error, its byte
    positions counted from the start of the file: the text reader's
    `error` reports them within the bytes it decoded last, and is the
    message should the file decode on this second read."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    with open(path, "rb") as raw:
        while True:
            chunk = raw.read(_READ_CHARS)
            # the decoder still holds the bytes of an unfinished character
            start = offset - len(decoder.getstate()[0])
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                first, last = start + exc.start, start + exc.end - 1
                what = (f"byte 0x{exc.object[exc.start]:02x} in position {first}"
                        if first == last else f"bytes in position {first}-{last}")
                return f"'{exc.encoding}' codec can't decode {what}: {exc.reason}"
            if not chunk:
                return str(error)
            offset += len(chunk)


def read_triplet(path):
    """Read a triplet file back into a float64 CSR matrix (duplicates are
    summed).

    Blank lines before the header and after the last entry aside, the
    header must declare as many entries as the file has lines; a first
    pass over the open file counts them, a run of characters at a time.
    The lines are then parsed once from the open file, as int64 indices
    and float64 values; loadtxt rejects a line without three fields, and
    with `comments=None` a `#` line is malformed. numpy 1.23 to 1.26 parse
    a float token into an integer field by truncating it with a
    DeprecationWarning; raised as an error, that warning makes them reject
    the token as later numpy does. Every error names the file."""
    with open(path, encoding="utf-8") as text:
        try:
            header = text.readline()
            while header and not header.strip():
                header = text.readline()
            body = text.tell()
            newlines = trailing = 0  # the body's newlines; those after its last token
            blank = True
            while chunk := text.read(_READ_CHARS):
                tokens = chunk.rstrip()
                newlines += chunk.count("\n")
                trailing = (trailing if not tokens else 0) + chunk.count("\n", len(tokens))
                blank = blank and not tokens
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {_decode_error(path, exc)}") from None
        if not header:
            raise ValueError(f"{path}: empty triplet file")
        header = header.strip() if blank else header.lstrip().removesuffix("\n")
        try:
            rows, cols, nnz = map(int, header.split())
        except ValueError:
            raise ValueError(f"{path}: malformed header {header!r}") from None
        if min(rows, cols, nnz) < 0:
            raise ValueError(f"{path}: malformed header {header!r}")
        found = 0 if blank else newlines - trailing + 1
        if found != nnz:
            raise ValueError(f"{path}: header declares {nnz} entries, found {found}")
        if not nnz:
            return sparse.csr_array((rows, cols), dtype=np.float64)
        text.seek(body)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                entries = np.loadtxt(text, dtype=_ENTRIES, comments=None, ndmin=1)
            if len(entries) != nnz:  # loadtxt skips blank lines
                raise ValueError("blank triplet line")
        except ValueError as exc:
            if not isinstance(exc, UnicodeDecodeError):
                text.seek(body)
                bad = _first_malformed_line(text)
                exc = f"malformed triplet line {bad!r}" if bad is not None else exc
            raise ValueError(f"{path}: {exc}") from None
    keys, col = entries["i"], entries["j"]
    for axis, index, size in (("row", keys, rows), ("column", col, cols)):
        if not (index.min() >= 1 and index.max() <= size):
            raise ValueError(f"{path}: {axis} index outside 1..{size}")
    # (i - 1) * cols + (j - 1), formed in the row field
    keys -= 1
    keys *= cols
    keys += col
    keys -= 1
    return csr_from_keys(keys, entries["v"], (rows, cols))


# ============================== bundles ======================================

def write_bundle(out_dir, cx, config):
    """Persist a built complex: config echo, dimension record, every
    named matrix as a triplet file and both geometry control nets."""
    out = Path(out_dir)
    (out / "matrices").mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")
    (out / "dimensions.json").write_text(json.dumps(cx.dims_record(), indent=2) + "\n")
    for name in MATRIX_NAMES:
        # formed, written and dropped one at a time
        write_triplet(out / "matrices" / f"{name}.txt", cx.named_matrix(name))
    nets = {
        "control_net_F.json": cx.polar_map.control_points,
        "control_net_G.json": cx.geometry_map.reduced_control_points,
    }
    for fname, pts in nets.items():
        # the JSON list [[x, y, z], ...], each value its repr token
        with open(out / fname, "w") as handle:
            handle.write("[")
            handle.writelines(_table_runs("[%s, %s, %s]", pts, ", "))
            handle.write("]\n")
    return out


def load_raw_config(path):
    """Raw config dict from a JSON file or a bundle directory."""
    p = Path(path)
    if p.is_dir():
        p = p / "config.json"
    if not p.exists():
        raise FileNotFoundError(f"no config found at {p}")
    try:
        with open(p, encoding="utf-8") as handle:
            raw = json.load(handle)
    except ValueError as exc:  # a JSON or a decode error
        raise ValueError(f"{p}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{p}: config must be a JSON object")
    return raw
