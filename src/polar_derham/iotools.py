"""Configuration files, triplet matrix serialization and bundle layout.

Matrices travel as plain-text coordinate triplets ("rows cols nnz"
header, then 1-based "i j value" lines in row-major order) so that a
build -> export -> import round trip is bit-identical; configs and
reports are JSON.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from .torus import TorusComplexSpec

__all__ = [
    "ComplexConfig",
    "write_triplet",
    "read_triplet",
    "write_bundle",
    "load_config",
]

_CONFIG_DEFAULTS = {
    "rho_bar": 3.0,
    "lengths": [1.0, 1.0, 1.0],
    "rank_tol": None,
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
    rho_bar: float = 3.0
    lengths: tuple = (1.0, 1.0, 1.0)
    rank_tol: float | None = None
    out_dir: str | None = None
    applied_defaults: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        raw = {k: v for k, v in raw.items() if k != "applied_defaults"}
        unknown = set(raw) - {
            "degrees", "distinct_knots", "dims", "rho_bar", "lengths",
            "rank_tol", "out_dir",
        }
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "degrees" not in raw:
            raise ValueError("config is missing 'degrees'")
        degrees = _checked_triple("degrees", raw["degrees"], int)
        pr, ps, pt = degrees
        distinct = None
        if "distinct_knots" in raw:
            distinct = _checked_triple("distinct_knots", raw["distinct_knots"], int)
        if "dims" in raw:
            nr, ns, nt = _checked_triple("dims", raw["dims"], int)
            from_dims = (nr - pr + 3, ns - ps + 1, nt - pt + 3)
            if distinct is not None and distinct != from_dims:
                raise ValueError(
                    f"'distinct_knots' {distinct} and 'dims' {tuple(raw['dims'])} "
                    "disagree"
                )
            distinct = from_dims
        if distinct is None:
            raise ValueError("config needs 'distinct_knots' or 'dims'")
        rank_tol, out_dir = raw.get("rank_tol"), raw.get("out_dir")
        if rank_tol is not None:
            rank_tol = _checked("rank_tol", rank_tol, float)
            if not (math.isfinite(rank_tol) and rank_tol > 0):
                raise ValueError(
                    f"config 'rank_tol' must be a finite number > 0, got {rank_tol!r}"
                )
        if out_dir is not None and not isinstance(out_dir, str):
            raise ValueError(f"config 'out_dir' must be a string, got {out_dir!r}")
        applied = [k for k in _CONFIG_DEFAULTS if k not in raw]
        return cls(
            degrees=degrees,
            distinct_knots=distinct,
            rho_bar=_checked(
                "rho_bar", raw.get("rho_bar", _CONFIG_DEFAULTS["rho_bar"]), float
            ),
            lengths=_checked_triple(
                "lengths", raw.get("lengths", _CONFIG_DEFAULTS["lengths"]), float
            ),
            rank_tol=rank_tol,
            out_dir=out_dir,
            applied_defaults=applied,
        )

    @classmethod
    def from_file(cls, path):
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    @property
    def dims(self):
        (pr, ps, pt), (dr, ds, dt) = self.degrees, self.distinct_knots
        return dr + pr - 3, ds + ps - 1, dt + pt - 3

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
            "rank_tol": self.rank_tol,
            "out_dir": self.out_dir,
            "applied_defaults": list(self.applied_defaults),
        }


# ============================ triplet format =================================

def _format_value(value, integer):
    if integer:
        return str(int(value))
    return repr(float(value))


def write_triplet(path, matrix):
    """Write a sparse matrix as 1-based row-major coordinate triplets."""
    csr = matrix.tocsr()
    csr.sum_duplicates()
    csr.sort_indices()
    csr.eliminate_zeros()
    coo = csr.tocoo()
    integer = np.issubdtype(csr.dtype, np.integer)
    lines = [f"{csr.shape[0]} {csr.shape[1]} {coo.nnz}"]
    for i, j, v in zip(coo.row, coo.col, coo.data):
        lines.append(f"{i + 1} {j + 1} {_format_value(v, integer)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_triplet(path):
    """Read a triplet file back into a CSR matrix (int64 when every value
    token is an integer literal, float64 otherwise)."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"{path}: empty triplet file")
    header = text[0].split()
    if len(header) != 3:
        raise ValueError(f"{path}: malformed header {text[0]!r}")
    rows, cols, nnz = (int(x) for x in header)
    if len(text) - 1 != nnz:
        raise ValueError(f"{path}: header declares {nnz} entries, found {len(text) - 1}")
    ii, jj, tokens = [], [], []
    for line in text[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: malformed triplet line {line!r}")
        ii.append(int(parts[0]) - 1)
        jj.append(int(parts[1]) - 1)
        tokens.append(parts[2])
    integer = all(_is_int_token(t) for t in tokens)
    dtype = np.int64 if integer else np.float64
    vals = np.array([int(t) if integer else float(t) for t in tokens], dtype=dtype)
    return sparse.coo_array(
        (vals, (np.array(ii, dtype=int), np.array(jj, dtype=int))),
        shape=(rows, cols),
    ).tocsr()


def _is_int_token(token):
    try:
        int(token)
        return True
    except ValueError:
        return False


# ============================== bundles ======================================

def write_bundle(out_dir, cx, config):
    """Persist a built complex: config echo, dimension record, every
    named matrix as a triplet file and both geometry control nets."""
    out = Path(out_dir)
    (out / "matrices").mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")
    (out / "dimensions.json").write_text(json.dumps(cx.dims_record(), indent=2) + "\n")
    for name, matrix in cx.named_matrices().items():
        write_triplet(out / "matrices" / f"{name}.txt", matrix)
    nets = {
        "control_net_F.json": cx.polar_map.control_points,
        "control_net_G.json": cx.geometry_map.reduced_control_points,
    }
    for fname, pts in nets.items():
        (out / fname).write_text(json.dumps(pts.tolist()) + "\n")
    return out


def load_raw_config(path):
    """Raw config dict from a JSON file or a bundle directory."""
    p = Path(path)
    if p.is_dir():
        p = p / "config.json"
    if not p.exists():
        raise FileNotFoundError(f"no config found at {p}")
    with open(p) as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"{p}: config must be a JSON object")
    raw.pop("applied_defaults", None)
    return raw


def load_config(path):
    """Load a config from a JSON file or from a bundle directory."""
    return ComplexConfig.from_dict(load_raw_config(path))
