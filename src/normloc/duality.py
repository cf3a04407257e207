"""From certificates to localization bounds and back to kernels.

A vector certificate at radius S induces a completely positive map on the
image of the ball compression: weight the block at x by the certificate
vector at x and sum.  Because every compression block is a subread of the
source operator, that map acts on compressed operators as Schur
multiplication by the certificate's Gram matrix, which is how it is
evaluated here (exactly; the two routes are also compared entrywise).

Combining the multiplier with the Schur test on the band gives the
quantitative bound: for operators of propagation at most R,

    ||a - multiplier(a)|| <= kappa * deficit * ||a||

with kappa the largest R-ball and deficit the worst Gram shortfall on the
band, hence ||compression(a)|| >= (1 - kappa * deficit) * ||a||.  The
multiplier's kernel, in closed form the Gram table masked by ball overlap,
is the Gram matrix again, closing the loop between certificate forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certificates import (
    KernelCertificate,
    VectorCertificate,
    kernel_checks,
    kernel_deviation,
    named_certificate,
    vector_to_kernel,
)
from .errors import (
    DataError,
    InvalidParams,
    InvalidRadii,
    RadiusMismatch,
)
from .localization import (
    BlockCompression,
    compress,
    onl_profile,
    vector_amplification_reduction,
)
from .operators import (
    BandedOperator,
    adjacency,
    max_abs_entry,
    operator_norm,
    propagation,
    random_banded,
    same_space,
    top_singular_values,
)
from .space import FiniteMetricSpace, _integer, geometry_profile


class SchurCPMap:
    """Positive multiplier built from a vector certificate.

    Caches the Gram table and the ball-overlap mask of the certificate
    radius.  Applying the map to a compression multiplies the source
    entries by the Gram weights; entries of points with no common ball are
    killed (their weight is exactly zero).
    """

    def __init__(self, certificate: VectorCertificate):
        self.certificate = certificate
        self.space = certificate.space
        self.radius = certificate.radius
        self.gram_table = np.asarray(certificate.gram(), dtype=np.complex128)
        # A float product runs through BLAS and counts exactly at these sizes.
        within = (self.space.dist <= self.radius).astype(np.float64)
        self.overlap = (within @ within) > 0

    def __repr__(self) -> str:
        return (
            f"SchurCPMap(space={self.space.name!r}, radius={self.radius})"
        )


def _expand_weights(table: np.ndarray, m: int) -> np.ndarray:
    if m == 1:
        return table
    return np.kron(table, np.ones((m, m)))


def phi_apply(cp: SchurCPMap, compressed: BlockCompression) -> BandedOperator:
    """Evaluate the multiplier on a compressed operator.

    The compression must have been taken at the certificate radius; the
    result is the source operator Schur-multiplied by the Gram table, with
    support cut down to pairs sharing a ball.
    """
    if compressed.radius != cp.radius:
        raise RadiusMismatch(
            f"compression at radius {compressed.radius}, map built for "
            f"{cp.radius}"
        )
    source = compressed.source
    if not same_space(source.space, cp.space):
        raise DataError("compression and map live on different spaces")
    weights = _expand_weights(cp.gram_table, source.m)
    data = weights * source.data
    support = source.support & cp.overlap
    return BandedOperator(source.space, source.m, data, support)


def schur_multiply(a: BandedOperator, kernel) -> BandedOperator:
    """Entrywise product of an operator with a kernel (point-level)."""
    if isinstance(kernel, KernelCertificate):
        if not same_space(a.space, kernel.space):
            raise DataError("operator and kernel live on different spaces")
        table = kernel.table
    else:
        table = np.asarray(kernel, dtype=np.complex128)
        if table.shape != (a.n, a.n):
            raise DataError(
                f"kernel shape {table.shape} does not match n = {a.n}"
            )
    data = _expand_weights(table, a.m) * a.data
    support = a.support & (table != 0)
    return BandedOperator(a.space, a.m, data, support)


def schur_test_kappa(space: FiniteMetricSpace, radius: float) -> int:
    """Largest ball size at the radius; the Schur-test band constant.

    For an operator of propagation at most the radius, every row and column
    has at most this many nonzero entries, so the operator norm is at most
    kappa times the largest entry magnitude.
    """
    return geometry_profile(space, radius).max_ball


def schur_norm_bound(a: BandedOperator, radius: float | None = None) -> float:
    """Upper bound kappa * max entry for a banded operator.

    ``radius`` defaults to the measured propagation.  For multi-slot
    operators the entry magnitude is the largest block spectral norm.
    """
    band = propagation(a) if radius is None else radius
    kappa = schur_test_kappa(a.space, band)
    if a.m == 1:
        peak = max_abs_entry(a)
    else:
        blocks = (
            a.data.reshape(a.n, a.m, a.n, a.m)
            .transpose(0, 2, 1, 3)
            .reshape(a.n * a.n, a.m, a.m)
        )
        peak = float(top_singular_values(blocks).max())
    return kappa * peak


def _frac_str(f: Fraction | None) -> str | None:
    return None if f is None else str(f)


@dataclass(frozen=True, eq=False)
class OnlBound:
    """Certified localization bound from one certificate on one band.

    ``gram_deficit`` is the float worst-case |1 - Gram| over the band (the
    same computation as measuring the extracted kernel, so the two agree
    bitwise); the exact fields carry Fractions when the certificate kept
    its Gram matrix rational, and ``epsilon`` is then rounded from the
    exact value.  ``vacuous`` flags epsilon >= 1, where the bound says
    nothing.
    """

    space_name: str
    band_radius: float
    loc_radius: float
    kappa: int
    gram_deficit: float
    gram_deficit_exact: Fraction | None
    epsilon: float
    epsilon_exact: Fraction | None
    vacuous: bool
    sample_checks: tuple
    all_verified: bool | None

    def to_json(self) -> dict:
        return {
            "space": self.space_name,
            "band_radius": self.band_radius,
            "loc_radius": self.loc_radius,
            "kappa": self.kappa,
            "gram_deficit": self.gram_deficit,
            "gram_deficit_exact": _frac_str(self.gram_deficit_exact),
            "epsilon": self.epsilon,
            "epsilon_exact": _frac_str(self.epsilon_exact),
            "vacuous": self.vacuous,
            "sample_checks": [dict(c) for c in self.sample_checks],
            "all_verified": self.all_verified,
        }


def a_implies_onl_bound(
    certificate: VectorCertificate,
    band_radius: float,
    samples: int = 0,
    seed: int = 0,
    slack: float = 1e-9,
) -> OnlBound:
    """Quantitative lower bound on compression norms from a certificate.

    Computes kappa (largest band ball), the Gram deficit on the band, and
    epsilon = kappa * deficit.  With ``samples`` > 0, seeded Gaussian
    operators in the band are drawn and both conclusions are verified
    numerically: the multiplier moves a by at most epsilon * ||a||, and the
    compressed norm is at least (1 - epsilon) * ||a||, each with additive
    ``slack`` for the floating-point norms.
    """
    if band_radius < 0:
        raise InvalidRadii(f"band radius must be >= 0, got {band_radius}")
    space = certificate.space
    gram = certificate.gram()
    band = space.dist <= band_radius
    deficit = float(np.abs(1.0 - gram[band]).max())
    deficit_exact = None
    if certificate.exact_gram is not None:
        # Gram entries of unit vectors are at most 1, so the worst shortfall
        # on the band is 1 minus the smallest entry there.
        counts, size = certificate.exact_gram
        deficit_exact = Fraction(size - int(counts[band].min()), size)
    kappa = schur_test_kappa(space, band_radius)
    if deficit_exact is not None:
        epsilon_exact = kappa * deficit_exact
        epsilon = float(epsilon_exact)
    else:
        epsilon_exact = None
        epsilon = kappa * deficit
    checks = []
    all_verified: bool | None = None
    if samples > 0:
        cp = SchurCPMap(certificate)
        rng = np.random.default_rng(seed)
        child_seeds = rng.integers(0, 2**63 - 1, size=samples)
        for s in child_seeds:
            a = random_banded(space, band_radius, int(s))
            norm_a = operator_norm(a)
            compressed = compress(a, certificate.radius)
            moved = operator_norm(a - phi_apply(cp, compressed))
            loc = compressed.norm()
            multiplier_ok = moved <= epsilon * norm_a + slack
            lower_ok = (1.0 - epsilon) * norm_a <= loc + slack
            checks.append(
                {
                    "seed": int(s),
                    "operator_norm": norm_a,
                    "difference_norm": moved,
                    "compressed_norm": loc,
                    "multiplier_ok": bool(multiplier_ok),
                    "lower_bound_ok": bool(lower_ok),
                }
            )
        all_verified = all(
            c["multiplier_ok"] and c["lower_bound_ok"] for c in checks
        )
    return OnlBound(
        space_name=space.name,
        band_radius=band_radius,
        loc_radius=certificate.radius,
        kappa=kappa,
        gram_deficit=deficit,
        gram_deficit_exact=deficit_exact,
        epsilon=epsilon,
        epsilon_exact=epsilon_exact,
        vacuous=bool(epsilon >= 1),
        sample_checks=tuple(checks),
        all_verified=all_verified,
    )


def kernel_from_cp_map(cp: SchurCPMap) -> KernelCertificate:
    """The kernel of the multiplier: the Gram table masked by ball overlap.

    The multiplier sends e_yz to Gram[y, z] e_yz when y and z share a ball
    and kills it otherwise.  The table takes the same complex product as
    the literal route (each matrix unit through compression and
    :func:`phi_apply`, a test oracle), so the two agree bit for bit.  A
    negative map radius, a map radius other than the certificate's, or a
    nonzero Gram weight outside the overlap raises.
    """
    if cp.radius < 0:
        raise InvalidParams(f"map radius must be nonnegative, got {cp.radius}")
    if cp.radius != cp.certificate.radius:
        raise RadiusMismatch(f"map radius {cp.radius} is not its certificate's")
    table = cp.gram_table * (1 + 0j)
    if table[~cp.overlap].any():
        raise DataError("nonzero Gram weight between points with no common ball")
    space = cp.space
    nonzero = table != 0
    np.fill_diagonal(nonzero, False)
    prop = space.dist[nonzero].max() if nonzero.any() else 0
    return KernelCertificate(
        space=space,
        radius=float(prop) if space.dist.dtype.kind == "f" else int(prop),
        table=table,
        note="extracted from localization multiplier",
    )


@dataclass(frozen=True, eq=False)
class CbNormReport:
    """Sampled comparison of amplified and scalar inverse-localization ratios.

    ``inverse ratio`` of an operator means ||a|| / ||compression(a)||.  The
    scalar estimate combines plain scalar samples with the fiberwise
    reductions of every amplified sample; consistency asserts the amplified
    ratios never exceed that estimate beyond tolerance, the sampled shadow
    of equality between the norm and its amplified (completely bounded)
    version.
    """

    space_name: str
    band_radius: float
    loc_radius: float
    amplification: int
    samples: int
    seed: int
    scalar_ratios: tuple
    amplified_ratios: tuple
    reduction_ratios: tuple
    reduction_fractions: tuple
    scalar_ratio_raw: float
    amplified_ratio: float
    scalar_ratio_estimate: float
    min_reduction_fraction: float
    tolerance: float
    consistent: bool

    def to_json(self) -> dict:
        return {
            "space": self.space_name,
            "band_radius": self.band_radius,
            "loc_radius": self.loc_radius,
            "amplification": self.amplification,
            "samples": self.samples,
            "seed": self.seed,
            "scalar_ratios": list(self.scalar_ratios),
            "amplified_ratios": list(self.amplified_ratios),
            "reduction_ratios": list(self.reduction_ratios),
            "reduction_fractions": list(self.reduction_fractions),
            "scalar_ratio_raw": self.scalar_ratio_raw,
            "amplified_ratio": self.amplified_ratio,
            "scalar_ratio_estimate": self.scalar_ratio_estimate,
            "min_reduction_fraction": self.min_reduction_fraction,
            "tolerance": self.tolerance,
            "consistent": self.consistent,
        }


def sampled_cb_norm_check(
    space: FiniteMetricSpace,
    band_radius: float,
    loc_radius: float,
    amplification: int,
    samples: int = 100,
    seed: int = 0,
    tolerance: float = 1e-6,
) -> CbNormReport:
    """Check that amplification does not inflate inverse-localization ratios.

    Draws seeded scalar and amplified Gaussian band operators, reduces
    every amplified sample to a scalar one through its top singular fibers,
    and compares the worst amplified ratio against the best scalar
    evidence.  Requires 0 < band radius <= localization radius so that
    compressions of banded operators never vanish.
    """
    if not 0 < band_radius <= loc_radius:
        raise InvalidRadii(
            f"need 0 < band radius <= localization radius, got "
            f"{band_radius} and {loc_radius}"
        )
    amplification = _integer(amplification, "the amplification")
    if amplification < 1:
        raise InvalidParams(f"amplification must be >= 1, got {amplification}")
    if samples < 1:
        raise InvalidParams("need at least one sample")
    rng = np.random.default_rng(seed)
    child_seeds = rng.integers(0, 2**63 - 1, size=(samples, 2))

    def inverse_ratio(a: BandedOperator) -> float:
        return operator_norm(a) / compress(a, loc_radius).norm()

    scalar_ratios = []
    amplified_ratios = []
    reduction_ratios = []
    reduction_fractions = []
    for s_scalar, s_amp in child_seeds:
        scalar_ratios.append(
            inverse_ratio(random_banded(space, band_radius, int(s_scalar)))
        )
        amp = random_banded(
            space, band_radius, int(s_amp), m=amplification
        )
        amplified_ratios.append(inverse_ratio(amp))
        red = vector_amplification_reduction(amp)
        reduction_ratios.append(inverse_ratio(red.compressed))
        reduction_fractions.append(red.achieved_fraction)
    raw = max(scalar_ratios)
    estimate = max([raw] + reduction_ratios)
    amplified = max(amplified_ratios)
    return CbNormReport(
        space_name=space.name,
        band_radius=band_radius,
        loc_radius=loc_radius,
        amplification=amplification,
        samples=samples,
        seed=seed,
        scalar_ratios=tuple(scalar_ratios),
        amplified_ratios=tuple(amplified_ratios),
        reduction_ratios=tuple(reduction_ratios),
        reduction_fractions=tuple(reduction_fractions),
        scalar_ratio_raw=raw,
        amplified_ratio=amplified,
        scalar_ratio_estimate=estimate,
        min_reduction_fraction=min(reduction_fractions),
        tolerance=tolerance,
        consistent=bool(amplified <= estimate + tolerance),
    )


EQUIV_CSV_HEADER = (
    "space",
    "n",
    "R",
    "S",
    "kappa",
    "gram_deficit",
    "epsilon",
    "vacuous",
    "all_verified",
    "kernel_psd",
    "profile_worst_ratio",
)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """One full certificate-to-localization-and-back experiment."""

    space_name: str
    n: int
    band_radius: float
    loc_radius: float
    certificate_summary: dict
    bound: OnlBound
    kernel: KernelCertificate
    kernel_matches_gram: bool
    kernel_report: dict
    kernel_band_deviation: float
    deviation_matches_deficit: bool
    profile: object | None
    warnings: tuple
    note: str

    def to_json(self) -> dict:
        return {
            "space": {"name": self.space_name, "n": self.n},
            "parameters": {
                "band_radius": self.band_radius,
                "loc_radius": self.loc_radius,
            },
            "certificate": self.certificate_summary,
            "epsilon": {
                "kappa": self.bound.kappa,
                "gram_deficit": self.bound.gram_deficit,
                "gram_deficit_exact": _frac_str(self.bound.gram_deficit_exact),
                "epsilon": self.bound.epsilon,
                "epsilon_exact": _frac_str(self.bound.epsilon_exact),
                "vacuous": self.bound.vacuous,
            },
            "certified_bound_checks": {
                "samples": [dict(c) for c in self.bound.sample_checks],
                "all_verified": self.bound.all_verified,
            },
            "kernel_checks": {
                **self.kernel_report,
                "matches_gram": self.kernel_matches_gram,
                "band_deviation": self.kernel_band_deviation,
                "deviation_matches_deficit": self.deviation_matches_deficit,
            },
            "onl_profile": None if self.profile is None else self.profile.to_json(),
            "warnings": list(self.warnings),
            "note": self.note,
        }

    def csv_row(self) -> tuple:
        return (
            self.space_name,
            self.n,
            self.band_radius,
            self.loc_radius,
            self.bound.kappa,
            self.bound.gram_deficit,
            self.bound.epsilon,
            self.bound.vacuous,
            self.bound.all_verified,
            self.kernel_report.get("psd_ok"),
            None if self.profile is None else self.profile.worst_ratio,
        )


def equivalence_experiment(
    space: FiniteMetricSpace,
    band_radius: float,
    loc_radius: float,
    certificate="ball",
    samples: int = 50,
    seed: int = 0,
    profile_samples: int = 25,
    search_budget: int = 100,
) -> EquivalenceReport:
    """Run the full pipeline: certificate, bound, multiplier, kernel, search.

    ``certificate`` is a source name for :func:`named_certificate` or an
    explicit :class:`VectorCertificate` at the localization radius.  The
    experiment always completes; when the certified bound is vacuous or the
    radii leave nothing to localize, it says so in ``warnings`` instead of
    failing.
    """
    warnings = []
    origin = certificate if isinstance(certificate, str) else "custom"
    if isinstance(certificate, VectorCertificate):
        cert = certificate
        if cert.radius != loc_radius:
            raise InvalidParams(
                f"certificate radius {cert.radius} does not match "
                f"localization radius {loc_radius}"
            )
    else:
        cert = named_certificate(space, certificate, loc_radius)
    bound = a_implies_onl_bound(cert, band_radius, samples=samples, seed=seed)
    if bound.vacuous:
        warnings.append(
            "certified bound is vacuous (epsilon >= 1); quantitative "
            "conclusions carry no information at this band radius"
        )
    cp = SchurCPMap(cert)
    gram_kernel = vector_to_kernel(cert)
    extracted = kernel_from_cp_map(cp)
    matches = bool(np.array_equal(extracted.table, gram_kernel.table))
    report = kernel_checks(extracted)
    deviation = kernel_deviation(extracted, band_radius)
    deviation_matches = bool(deviation == bound.gram_deficit)
    profile = None
    if profile_samples > 0 and 0 < band_radius <= loc_radius:
        probes = []
        if band_radius >= 1 and (space.dist == 1).any():
            probes.append(("adjacency", adjacency(space)))
        profile = onl_profile(
            space,
            band_radius,
            loc_radius,
            samples=profile_samples,
            seed=seed,
            search_budget=search_budget,
            certificate=cert,
            probes=tuple(probes),
        )
    elif profile_samples > 0:
        warnings.append(
            "no localization search: need 0 < band radius <= localization "
            "radius"
        )
    sizes = None
    if cert.exact_gram is not None:
        sizes = "equal (exact rational Gram)"
    summary = {
        "origin": origin,
        "form": "vector",
        "radius": cert.radius,
        "slots": cert.m,
        "gram_arithmetic": "exact" if cert.exact_gram is not None else "float",
        "sizes": sizes,
    }
    note = (
        "certificate built explicitly; kernel extracted entrywise from the "
        "multiplier and compared bitwise against the certificate Gram matrix"
    )
    return EquivalenceReport(
        space_name=space.name,
        n=space.n,
        band_radius=band_radius,
        loc_radius=loc_radius,
        certificate_summary=summary,
        bound=bound,
        kernel=extracted,
        kernel_matches_gram=matches,
        kernel_report=report,
        kernel_band_deviation=deviation,
        deviation_matches_deficit=deviation_matches,
        profile=profile,
        warnings=tuple(warnings),
        note=note,
    )
