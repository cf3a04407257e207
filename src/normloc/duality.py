"""From certificates to localization bounds and back to kernels.

A vector certificate at radius S induces a completely positive map on the
image of the ball compression: weight the block at x by the certificate
vector at x and sum.  Because every compression block is a subread of the
source operator, that map acts on compressed operators as Schur
multiplication by the certificate's Gram matrix, which is how
:func:`phi_apply` evaluates it, straight from the certificate (the test
oracles also take the literal route and compare entrywise).

Combining the multiplier with the Schur test on the band gives the
quantitative bound: for operators of propagation at most R,

    ||a - multiplier(a)|| <= kappa * deficit * ||a||

with kappa the largest R-ball and deficit the worst Gram shortfall on the
band, hence ||compression(a)|| >= (1 - kappa * deficit) * ||a||.  The
multiplier's kernel is the Gram matrix again, which vanishes between
points whose balls share no point, closing the loop between certificate
forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certificates import (
    KernelCertificate,
    VectorCertificate,
    band_epsilon,
    kernel_checks,
    named_certificate,
    subset_to_vector,
)
from .errors import (
    DataError,
    InvalidParams,
    InvalidRadii,
    RadiusMismatch,
    ZeroOperator,
)
from .localization import (
    BlockCompression,
    _check_certificate,
    _report_and_norms,
    compress,
    onl_profile,
    vector_amplification_reduction,
)
from .operators import (
    BandedOperator,
    adjacency,
    operator_norm,
    random_banded,
    same_space,
)
from .space import (
    FiniteMetricSpace,
    _fields_json,
    _integer,
    largest_distance,
)

# Additive slack on the floating-point norms in a sampled bound check.
BOUND_CHECK_SLACK = 1e-9
# How far the amplified ratio may exceed the scalar estimate in a
# consistent cb-norm check (:func:`sampled_cb_norm_check`).
CB_TOLERANCE = 1e-6


def _expand_weights(table: np.ndarray, m: int) -> np.ndarray:
    if m == 1:
        return table
    return np.kron(table, np.ones((m, m)))


def phi_apply(
    certificate: VectorCertificate, compressed: BlockCompression
) -> BandedOperator:
    """Evaluate the certificate's multiplier on a compressed operator.

    The compression must have been taken at the certificate radius; the
    result is the source operator Schur-multiplied by the Gram table, whose
    weight between points with no common ball is exactly zero.
    """
    if compressed.radius != certificate.radius:
        raise RadiusMismatch(
            f"compression at radius {compressed.radius}, certificate at "
            f"{certificate.radius}"
        )
    source = compressed.source
    if not same_space(source.space, certificate.space):
        raise DataError("compression and certificate live on different spaces")
    weights = _expand_weights(certificate.gram, source.m)
    return BandedOperator(source.space, source.m, weights * source.data)


@dataclass(frozen=True, eq=False)
class OnlBound:
    """Certified localization bound from one certificate on one band.

    The fields from ``kappa`` to ``vacuous`` are
    :func:`~normloc.certificates.band_epsilon`'s; a vacuous bound says
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
        return _fields_json(self)


def _bound_checks(
    norm_a: float, moved: float, loc: float, epsilon: float
) -> tuple[bool, bool]:
    """(``multiplier_ok``, ``lower_bound_ok``) of one sampled operator of
    norm ``norm_a``: the multiplier moves it by ``moved`` <= epsilon *
    ``norm_a``, and its compressed norm ``loc`` is >= (1 - epsilon) *
    ``norm_a``, each with additive ``BOUND_CHECK_SLACK``."""
    multiplier_ok = moved <= epsilon * norm_a + BOUND_CHECK_SLACK
    lower_ok = (1.0 - epsilon) * norm_a <= loc + BOUND_CHECK_SLACK
    return bool(multiplier_ok), bool(lower_ok)


def a_implies_onl_bound(
    certificate: VectorCertificate,
    band_radius: float,
    samples: int = 0,
    seed: int = 0,
    *,
    _measured: tuple = (),
) -> OnlBound:
    """Quantitative lower bound on compression norms from a certificate.

    Takes kappa (largest band ball), the Gram deficit on the band, and
    epsilon = kappa * deficit from :func:`~normloc.certificates.band_epsilon`.
    With ``samples`` > 0, seeded Gaussian operators in the band are drawn
    and both conclusions are verified numerically: the multiplier moves a
    by at most epsilon * ||a||, and the compressed norm is at least (1 -
    epsilon) * ||a||, each with additive ``BOUND_CHECK_SLACK`` for the
    floating-point norms (:func:`_bound_checks`).  The first samples take
    their operator and compressed norm from ``_measured``, the
    (operator, report, norms, exact) of :func:`equivalence_experiment`.
    """
    terms = band_epsilon(certificate, band_radius)
    if samples < 0:
        raise InvalidParams(f"sample count must be >= 0, got {samples}")
    space = certificate.space
    epsilon = terms["epsilon"]
    checks = []
    all_verified: bool | None = None
    if samples > 0:
        rng = np.random.default_rng(seed)
        child_seeds = rng.integers(0, 2**63 - 1, size=samples)
        for i, s in enumerate(child_seeds):
            if i < len(_measured):
                a, report = _measured[i][:2]
            else:
                a, report = random_banded(space, band_radius, int(s)), None
            norm_a = operator_norm(a)
            compressed = compress(a, certificate.radius)
            moved = operator_norm(a - phi_apply(certificate, compressed))
            loc = report.compressed_norm if report else compressed.norm()
            multiplier_ok, lower_ok = _bound_checks(
                norm_a, moved, loc, epsilon
            )
            checks.append(
                {
                    "seed": int(s),
                    "operator_norm": norm_a,
                    "difference_norm": moved,
                    "compressed_norm": loc,
                    "multiplier_ok": multiplier_ok,
                    "lower_bound_ok": lower_ok,
                }
            )
        all_verified = all(
            c["multiplier_ok"] and c["lower_bound_ok"] for c in checks
        )
    return OnlBound(
        space_name=space.name,
        band_radius=band_radius,
        loc_radius=certificate.radius,
        **terms,
        sample_checks=tuple(checks),
        all_verified=all_verified,
    )


def kernel_from_cp_map(certificate: VectorCertificate) -> KernelCertificate:
    """The kernel of the certificate's multiplier: its Gram table.

    The multiplier sends e_yz to Gram[y, z] e_yz, which is zero when y and
    z share no ball.  The table takes the same complex product as the
    literal route (each matrix unit through compression and
    :func:`phi_apply`, a test oracle), so the two agree bit for bit.
    """
    table = certificate.gram * (1 + 0j)
    nonzero = table != 0
    np.fill_diagonal(nonzero, False)
    return KernelCertificate(
        space=certificate.space,
        radius=largest_distance(certificate.space, nonzero),
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
        return _fields_json(self)


def sampled_cb_norm_check(
    space: FiniteMetricSpace,
    band_radius: float,
    loc_radius: float,
    amplification: int,
    samples: int = 100,
    seed: int = 0,
) -> CbNormReport:
    """Check that amplification does not inflate inverse-localization ratios.

    Draws seeded scalar and amplified Gaussian band operators, reduces
    every amplified sample to a scalar one through its top singular fibers,
    and compares the worst amplified ratio against the best scalar
    evidence, allowing ``CB_TOLERANCE``.  Requires 0 < band radius <=
    localization radius, so that on a metric the compressions of banded
    operators never vanish; a sample that vanishes on every ball, as on a
    table that breaks the axioms, raises :class:`ZeroOperator`.
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
        norm_a = operator_norm(a)
        loc = compress(a, loc_radius).norm()
        if loc == 0.0:
            raise ZeroOperator("a sample vanishes on every ball")
        return norm_a / loc

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
        tolerance=CB_TOLERANCE,
        consistent=bool(amplified <= estimate + CB_TOLERANCE),
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
    kernel_report: dict
    profile: object | None
    warnings: tuple

    def to_json(self) -> dict:
        # The bound's own fields, less those stated under "space" and
        # "parameters", less its checks, make the epsilon block.
        epsilon = self.bound.to_json()
        checks = {
            "samples": epsilon.pop("sample_checks"),
            "all_verified": epsilon.pop("all_verified"),
        }
        for key in ("space", "band_radius", "loc_radius"):
            del epsilon[key]
        return {
            "space": {"name": self.space_name, "n": self.n},
            "parameters": {
                "band_radius": self.band_radius,
                "loc_radius": self.loc_radius,
            },
            "certificate": self.certificate_summary,
            "epsilon": epsilon,
            "certified_bound_checks": checks,
            "kernel_checks": dict(self.kernel_report),
            "onl_profile": None if self.profile is None else self.profile.to_json(),
            "warnings": list(self.warnings),
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

    The bound and the search draw their samples' seeds from one
    ``default_rng(seed)`` stream, so the search's operators are the
    bound's first ones, at the same band and localization radii.  When
    the search runs, the experiment draws its ``profile_samples``
    operators once and measures each once at ``loc_radius``
    (:func:`~normloc.localization._report_and_norms`), and hands the same
    (operator, report, norms, exact) tuples to both sides, by position:
    the bound's first checks take their compressed norm from the report,
    and the search's samples are those tuples.
    """
    if profile_samples < 0:
        raise InvalidParams(
            f"profile sample count must be >= 0, got {profile_samples}"
        )
    # The profile may be skipped, so the budget is checked here as well.
    if search_budget < 0:
        raise InvalidParams(f"search budget must be >= 0, got {search_budget}")
    warnings = []
    origin = certificate if isinstance(certificate, str) else "custom"
    cert = certificate
    if isinstance(certificate, str):
        subset = named_certificate(space, certificate, loc_radius)
        cert = subset_to_vector(subset)
    _check_certificate(cert, space, loc_radius)
    search = profile_samples > 0 and 0 < band_radius <= loc_radius
    measured = []
    if search:
        rng = np.random.default_rng(seed)
        for s in rng.integers(0, 2**63 - 1, size=profile_samples):
            op = random_banded(space, band_radius, int(s))
            measured.append((op, *_report_and_norms(op, loc_radius)))
    bound = a_implies_onl_bound(
        cert, band_radius, samples=samples, seed=seed, _measured=measured
    )
    if bound.vacuous:
        warnings.append(
            "certified bound is vacuous (epsilon >= 1); quantitative "
            "conclusions carry no information at this band radius"
        )
    report = kernel_checks(kernel_from_cp_map(cert))
    profile = None
    if search:
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
            _measured=measured,
        )
    elif profile_samples > 0:
        warnings.append(
            "no localization search: need 0 < band radius <= localization "
            "radius"
        )
    summary = {
        "origin": origin,
        "form": "vector",
        "radius": cert.radius,
        "slots": cert.m,
        "gram_arithmetic": "float" if cert.exact_gram is None else "exact",
    }
    return EquivalenceReport(
        space_name=space.name,
        n=space.n,
        band_radius=band_radius,
        loc_radius=loc_radius,
        certificate_summary=summary,
        bound=bound,
        kernel_report=report,
        profile=profile,
        warnings=tuple(warnings),
    )
