"""The benchmark's workloads: fixed sequences of qortho CLI invocations.

Every invocation is run as ``python -m qortho <argv> --format json``.  The
inputs are fixed by the paper's constructions; a workload seed only permutes
the order of the invocations.  README.md gives the reason for each workload.
"""

SETUP_ARGV = ("rmat", "--n", "3")

WORKLOADS = {
    # Flagship command: every layer runs, gcd-path projector arithmetic mixed
    # with monomial YBE products, build_R once per automorphism member, and
    # the unit-regime inverse(R).
    "verify": (
        ("verify-all", "--n", "4"),
        ("verify-all", "--n", "5"),
        ("verify-all", "--n", "6"),
    ),
    # Large sparse products over Laurent polynomials with monomial
    # denominators only: no gcd path, no elimination.
    "ybe": (
        ("rmat", "--n", "10"),
        ("ybe", "--n", "8"),
        ("ybe", "--n", "9"),
        ("ybe", "--n", "10"),
    ),
    # Many small N x N matrices with constant Gaussian-rational entries and
    # the t-extension in check_sostar; no N^2 x N^2 products.
    "realforms": (
        ("table", "--n", "8", "--regime", "real"),
        ("table", "--n", "9", "--regime", "real"),
        ("table", "--n", "10", "--regime", "real"),
        ("table", "--n", "10", "--regime", "unit"),
        ("classify", "--n", "6",
         "--spec", "base:star;autos:dsecond:+-+-+-;regime:real"),
        ("classify", "--n", "8",
         "--spec", "base:cross;autos:canonical;regime:unit"),
    ),
    # The only workload where the quantum-plane layer is a measurable share.
    "plane": (
        ("plane", "--n", "6"),
        ("plane", "--n", "8"),
        ("plane", "--n", "9"),
        ("plane-conj", "--n", "6",
         "--spec", "base:star;autos:canonical;regime:real"),
        ("quotient", "--sign", "plus"),
        ("quotient", "--sign", "minus"),
    ),
}

# Spans each workload must hit in the traced run.  A span with zero calls
# means a wrapper was bypassed (or the program stopped doing that work), and
# the traced run fails instead of reporting a silent zero.
REQUIRED_SPANS = {
    "verify": ("cli.main", "rmatrix.build_R", "rmatrix.check_ybe",
               "rmatrix.build_projectors", "linalg.inverse", "linalg.rank",
               "realforms.check_auto_conditions", "qplane.check_confluence",
               "scalars.Scalar.__mul__", "scalars.Scalar.__add__",
               "scalars.Scalar.inv", "linalg.SqMat.__mul__"),
    "ybe": ("cli.main", "rmatrix.build_R", "rmatrix.check_ybe",
            "linalg.kron_embed", "linalg.SqMat.__mul__",
            "scalars.Scalar.__mul__", "scalars.Scalar.__add__"),
    "realforms": ("cli.main", "realforms.count_real_forms",
                  "realforms.classify", "realforms.check_sostar",
                  "linalg.antilinear_fixed_basis", "linalg.signature",
                  "scalars.Scalar.__mul__"),
    "plane": ("cli.main", "qplane.plane_relations", "qplane.check_confluence",
              "qplane.normal_form", "qplane.check_star_consistency",
              "qplane.quotient_check", "rmatrix.build_projectors",
              "scalars.Scalar.__mul__"),
}


def invocation_key(argv):
    """Key of an invocation in expected.json."""
    return " ".join(argv)
