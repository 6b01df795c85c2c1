"""Output checks of the benchmark, independent of the verifier under test.

Every function returns a list of failure messages; an empty list means the
output is correct.  The checks run outside the timed regions.
"""

import numpy as np
from scipy import sparse

TOL = 1e-12
REFERENCE_RTOL = 1e-12


def max_abs(matrix):
    data = matrix.data if sparse.issparse(matrix) else np.asarray(matrix)
    return float(np.abs(data).max()) if data.size else 0.0


def count_formulas(nr, ns, nt):
    """Reduced dimensions n0..n3 of the polar complex of size (nr, ns, nt)."""
    nbar0 = nr * (ns - 2) + 3
    return {
        "n0": nt * nbar0,
        "n1": nt * (3 * nr * (ns - 2) + 5),
        "n2": nt * (2 * (nbar0 - 2) + nbar0 - 3),
        "n3": nt * (nbar0 - 3),
    }


def check_dimensions(record):
    """`record` is the content of a bundle's dimensions.json."""
    expected = count_formulas(*record["dims"])
    got = dict(zip(("n0", "n1", "n2", "n3"), record["reduced_dims"]))
    if got != expected:
        return [f"reduced dims {got} differ from the count formulas {expected}"]
    return []


def check_complex_property(mats, tol=TOL):
    """D1 D0 = 0 and D2 D1 = 0 for a dict of named matrices."""
    failures = []
    for a, b in (("D1", "D0"), ("D2", "D1")):
        residual = max_abs(mats[a] @ mats[b])
        if not residual <= tol:
            failures.append(f"max |{a} {b}| = {residual:.3e} > {tol:.0e}")
    return failures


def commutation_residuals(mats, dims):
    """Max-abs residuals of the seven identities tying the reduced incidence
    matrices to the tensor coefficient derivatives through the extraction.

    Only the named matrices of a bundle are used: the periodic difference
    stencils are read back from D100 and D001 and re-expanded for the
    components whose second direction is lowered.
    """
    nr, ns, nt = dims
    m = {name: mat.astype(float) for name, mat in mats.items()}
    dr, ds, dt = m["D100"], m["D010"], m["D001"]
    delta_r = dr[:nr, :nr]
    delta_t = dt[:: ns * nr, :: ns * nr]
    dr1 = sparse.kron(sparse.identity(nt * (ns - 1)), delta_r, format="csr")
    dt1 = sparse.kron(delta_t, sparse.identity((ns - 1) * nr), format="csr")
    E = {name: m[name].T for name in
         ("E000", "E100", "E010", "E001", "E011", "E101", "E110", "E111")}
    d0, d1, d2 = m["D0"], m["D1"], m["D2"]
    identities = {
        "grad_r": dr @ E["E000"] - E["E100"] @ d0,
        "grad_s": ds @ E["E000"] - E["E010"] @ d0,
        "grad_t": dt @ E["E000"] - E["E001"] @ d0,
        "curl_1": -dt1 @ E["E010"] + ds @ E["E001"] - E["E011"] @ d1,
        "curl_2": dt @ E["E100"] - dr @ E["E001"] - E["E101"] @ d1,
        "curl_3": -ds @ E["E100"] + dr1 @ E["E010"] - E["E110"] @ d1,
        "div": dr1 @ E["E011"] + ds @ E["E101"] + dt1 @ E["E110"] - E["E111"] @ d2,
    }
    return {name: max_abs(value) for name, value in identities.items()}


def check_commutation(mats, dims, tol=TOL):
    return [
        f"commutation {name}: residual {res:.3e} > {tol:.0e}"
        for name, res in commutation_residuals(mats, dims).items()
        if not res <= tol
    ]


def check_verify_outcome(rc, report, negative_control):
    """A valid complex must pass with cohomology (1, 1, 0, 0); a negative
    control must fail with exit code 1."""
    if negative_control:
        if rc != 1 or report.get("passed") is not False:
            return [f"negative control exited {rc}, report passed="
                    f"{report.get('passed')}; expected exit 1 and a failure"]
        return []
    failures = []
    if rc != 0 or report.get("passed") is not True:
        failures.append(f"verify exited {rc}: {report.get('failures')}")
    dims = report.get("suites", {}).get("cohomology", {}).get("dims")
    if dims != [1, 1, 0, 0]:
        failures.append(f"cohomology {dims}, expected [1, 1, 0, 0]")
    return failures


def check_operator_round(curl_grad, div_curl, grad_then_tensor, tensor_then_grad,
                         tol=TOL):
    """curl grad = 0, div curl = 0 and to_tensor(grad f) = grad(to_tensor f)."""
    failures = []
    for name, value in (("curl grad", curl_grad), ("div curl", div_curl),
                        ("to_tensor(grad f) - grad(to_tensor f)",
                         grad_then_tensor - tensor_then_grad)):
        residual = max_abs(value)
        if not residual <= tol:
            failures.append(f"max |{name}| = {residual:.3e} > {tol:.0e}")
    return failures


def check_constant_field(values, tol=TOL):
    """The pushforward of the all-ones level-0 field is 1 everywhere."""
    worst = float(np.abs(np.asarray(values) - 1.0).max())
    if not worst <= tol:
        return [f"all-ones field deviates from 1 by {worst:.3e} > {tol:.0e}"]
    return []


def check_reference(got, reference, rtol=REFERENCE_RTOL):
    """Compare pushforward results with the stored reference entries.

    `got` holds one (xyz, value) pair per reference entry.  Each position
    and each value must agree within `rtol` relative to the max-norm of the
    reference vector.
    """
    failures = []
    for index, (entry, (xyz, value)) in enumerate(zip(reference, got)):
        for label, a, b in (("xyz", xyz, entry["xyz"]), ("value", value, entry["value"])):
            a = np.atleast_1d(np.asarray(a, dtype=float))
            b = np.atleast_1d(np.asarray(b, dtype=float))
            scale = max(float(np.abs(b).max()), np.finfo(float).tiny)
            if a.shape != b.shape or not np.abs(a - b).max() <= rtol * scale:
                failures.append(
                    f"reference {index} (level {entry['level']}, point "
                    f"{entry['point']}): {label} {a.tolist()} != {b.tolist()}"
                )
    if len(got) != len(reference):
        failures.append(f"{len(got)} results for {len(reference)} reference entries")
    return failures
