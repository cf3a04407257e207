"""Command line front end.

Subcommands mirror the library: ``space`` (generate, validate), ``onl``
(localization profiles), ``cert`` (build, check), ``equiv`` (full
experiment), ``cb`` (amplified-norm consistency).  All file outputs are
written atomically and are byte-identical across reruns with the same
arguments: JSON is emitted with sorted keys and no timestamps, CSV with
fixed columns, and every random draw is derived from the required seed.

Exit codes: 0 success, 2 usage, 3 malformed or invalid data, 4 a
quantitative verification failed (or an iterative solver gave up).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys

from . import certificates as certs
from . import duality, localization, operators, space as spaces
from .errors import (
    ConvergenceFailure,
    DataError,
    NormlocError,
    VerificationError,
)

USAGE_EXIT = 2
DATA_EXIT = 3
VERIFY_EXIT = 4

# ``cert check`` passes a kernel whose diagonal and Hermitian errors are
# at most this.
KERNEL_TOLERANCE = 1e-9


class UsageError(Exception):
    pass


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    return buf.getvalue()


def _write_text(path: str, text: str) -> None:
    """Write atomically so a crashed run never leaves a torn file.

    The file is created with mode 0666 less the umask, like ``open``.
    """
    tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _finite(noun: str):
    """The argparse type of a flag that takes a finite float, named by
    ``noun`` in its messages.

    Text that is no number is a usage error (exit 2).  A NaN or infinite
    value raises :class:`DataError` (exit 3): no ball, band or artifact
    can be built from it, JSON cannot write it, and no comparison with it
    can both pass and fail.
    """

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise DataError(f"{noun} must be a finite number, got {text!r}")
        return value

    parse.__name__ = noun.split()[-1]
    return parse


# The type of every radius flag.
radius = _finite("a radius")


def seed(text: str) -> int:
    """The type of ``--seed``: numpy's generator refuses a negative seed."""
    value = int(text)
    if value < 0:
        raise DataError(f"the seed must be nonnegative, got {value}")
    return value


def _load_certificate(source: str, space, loc_radius):
    """Vector certificate from a named construction or a JSON file."""
    if source in certs.CERTIFICATE_SOURCES:
        loaded = certs.named_certificate(space, source, loc_radius)
    else:
        loaded = certs.certificate_from_json(spaces._read_json(source))
    if isinstance(loaded, certs.SubsetCertificate):
        loaded = certs.subset_to_vector(loaded)
    if isinstance(loaded, certs.KernelCertificate):
        raise DataError(
            "kernel certificates carry no vectors; supply a subset or "
            "vector form"
        )
    return loaded


def cmd_space_gen(args) -> int:
    kind = args.kind.replace("-", "_")
    if kind in ("cycle", "path"):
        _require(args.n is not None, f"--n is required for {args.kind}")
        params = {"n": args.n}
    elif kind == "grid":
        _require(
            args.rows is not None and args.cols is not None,
            "--rows and --cols are required for grid",
        )
        params = {"rows": args.rows, "cols": args.cols}
    elif kind == "binary_tree":
        _require(args.depth is not None, "--depth is required for binary-tree")
        params = {"depth": args.depth}
    else:
        _require(
            args.n is not None and args.degree is not None,
            "--n and --degree are required for random-regular",
        )
        _require(args.seed is not None, "--seed is required for random-regular")
        params = {"n": args.n, "d": args.degree}
    sp = spaces.generate_family(kind, params, seed=args.seed)
    _write_text(args.out, _json_text(spaces.space_to_json(sp)))
    profile = spaces.geometry_profile(sp, 1)
    print(
        f"{sp.name}: n={sp.n} diameter={profile.diameter} "
        f"max_ball(1)={profile.max_ball}"
    )
    return 0


def cmd_space_validate(args) -> int:
    sp = spaces.load_space(args.input)
    problems = spaces.validate_metric(sp, seed=args.seed or 0)
    if problems:
        for line in problems:
            print(line)
        return DATA_EXIT
    print(f"ok: {sp.name} satisfies the metric axioms (n={sp.n})")
    return 0


def cmd_onl_profile(args) -> int:
    sp = spaces.load_space(args.space)
    certificate = None
    if args.certificate is not None:
        certificate = _load_certificate(args.certificate, sp, args.loc_radius)
    probes = []
    if args.include_adjacency:
        probes.append(("adjacency", operators.adjacency(sp)))
    profile = localization.onl_profile(
        sp,
        args.band_radius,
        args.loc_radius,
        samples=args.samples,
        seed=args.seed,
        search_budget=args.budget,
        certificate=certificate,
        probes=tuple(probes),
    )
    _write_text(args.out + ".json", _json_text(profile.to_json()))
    rows = [r.csv_row() for r in profile.sample_reports]
    _write_text(args.out + ".csv", _csv_text(localization.CSV_HEADER, rows))
    print(
        f"{sp.name}: worst ratio {profile.worst_ratio!r} over "
        f"{profile.samples} samples"
        + (
            f", certified floor {profile.certified_lower_bound!r}"
            if profile.certified_lower_bound is not None
            else ""
        )
    )
    if profile.consistent is False:
        print("verification failed: search undercut the certified bound")
        return VERIFY_EXIT
    return 0


def cmd_cert_build(args) -> int:
    sp = spaces.load_space(args.space)
    subset = certs.named_certificate(sp, args.kind, args.radius)
    out = subset if args.form == "subset" else certs.subset_to_vector(subset)
    if args.form == "kernel":
        out = duality.kernel_from_cp_map(out)
    _write_text(args.out, _json_text(certs.certificate_to_json(out)))
    sizes = subset.sizes
    print(
        f"{sp.name}: {args.form} certificate at radius {subset.radius}, "
        f"slots={subset.m}, subset sizes {min(sizes)}..{max(sizes)}"
    )
    return 0


def cmd_cert_check(args) -> int:
    loaded = certs.certificate_from_json(spaces._read_json(args.input))
    if isinstance(loaded, certs.KernelCertificate):
        form, vector, kernel = "kernel", None, loaded
    else:
        form, vector = "vector", loaded
        if isinstance(loaded, certs.SubsetCertificate):
            form, vector = "subset", certs.subset_to_vector(loaded)
        kernel = duality.kernel_from_cp_map(vector)
    # Everything is computed before the first line is printed, so a bad
    # band radius exits without a half report.
    band = []
    if args.band_radius is not None:
        if vector is None:
            # A kernel document carries no vectors: read its band table.
            kappa = certs.schur_test_kappa(kernel.space, args.band_radius)
            deficit = certs.kernel_deviation(kernel, args.band_radius)
            epsilon, epsilon_exact = kappa * deficit, None
        else:
            bound = duality.a_implies_onl_bound(vector, args.band_radius)
            kappa, deficit = bound.kappa, bound.gram_deficit
            epsilon, epsilon_exact = bound.epsilon, bound.epsilon_exact
        band = [
            f"kappa: {kappa}",
            f"band_deviation: {deficit!r}",
            f"epsilon: {epsilon!r}",
            f"vacuous: {not epsilon < 1}",
        ]
        if epsilon_exact is not None:
            band.append(f"epsilon_exact: {epsilon_exact}")
    report = certs.kernel_checks(kernel)
    print(f"form: {form}")
    print(f"radius: {loaded.radius}")
    for key in (
        "diagonal_error",
        "hermitian_error",
        "min_eigenvalue",
        "psd_ok",
        "claimed_propagation",
        "measured_propagation",
    ):
        print(f"{key}: {report[key]!r}")
    ok = (
        report["psd_ok"]
        and report["diagonal_error"] <= KERNEL_TOLERANCE
        and report["hermitian_error"] <= KERNEL_TOLERANCE
    )
    for line in band:
        print(line)
    print(f"verdict: {'pass' if ok else 'fail'}")
    return 0 if ok else VERIFY_EXIT


def cmd_equiv_run(args) -> int:
    sp = spaces.load_space(args.space)
    certificate = args.certificate
    if certificate not in certs.CERTIFICATE_SOURCES:
        certificate = _load_certificate(certificate, sp, args.loc_radius)
    report = duality.equivalence_experiment(
        sp,
        args.band_radius,
        args.loc_radius,
        certificate=certificate,
        samples=args.samples,
        seed=args.seed,
        profile_samples=args.profile_samples,
        search_budget=args.budget,
    )
    _write_text(args.out + ".json", _json_text(report.to_json()))
    _write_text(
        args.out + ".csv",
        _csv_text(duality.EQUIV_CSV_HEADER, [report.csv_row()]),
    )
    print(
        f"{sp.name}: epsilon={report.bound.epsilon!r} "
        f"(exact {report.bound.epsilon_exact}), "
        f"kernel psd={report.kernel_report['psd_ok']}"
    )
    for warning in report.warnings:
        print(f"warning: {warning}")
    failed = (
        report.bound.all_verified is False
        or not report.kernel_report["psd_ok"]
        or (report.profile is not None and report.profile.consistent is False)
    )
    if failed:
        print("verification failed; see the JSON report")
        return VERIFY_EXIT
    return 0


def cmd_cb_check(args) -> int:
    sp = spaces.load_space(args.space)
    report = duality.sampled_cb_norm_check(
        sp,
        args.band_radius,
        args.loc_radius,
        args.amplification,
        samples=args.samples,
        seed=args.seed,
    )
    _write_text(args.out, _json_text(report.to_json()))
    print(
        f"{sp.name}: amplified {report.amplified_ratio!r} vs scalar estimate "
        f"{report.scalar_ratio_estimate!r}, "
        f"min reduction fraction {report.min_reduction_fraction!r}"
    )
    failed = []
    if not report.min_reduction_fraction >= args.fraction_floor:
        failed.append(
            f"reduction fraction below the fraction floor {args.fraction_floor!r}"
        )
    if not report.consistent:
        failed.append("consistent is false: amplification inflated the ratio")
    for clause in failed:
        print(f"verification failed: {clause}")
    return VERIFY_EXIT if failed else 0


def _add_common(parser, seed_required: bool = False):
    parser.add_argument(
        "--seed",
        type=seed,
        required=seed_required,
        default=None,
        help="base seed for every random draw"
        + ("" if seed_required else " (optional here)"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normloc",
        description=(
            "Numerical experiments relating localization of operator norms "
            "to positive-kernel certificates on finite metric spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", help="generate and validate spaces")
    space_sub = p_space.add_subparsers(dest="subcommand", required=True)

    p_gen = space_sub.add_parser("gen", help="generate a graph family")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=["cycle", "path", "grid", "binary-tree", "random-regular"],
    )
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--rows", type=int, default=None)
    p_gen.add_argument("--cols", type=int, default=None)
    p_gen.add_argument("--depth", type=int, default=None)
    p_gen.add_argument("--degree", type=int, default=None)
    p_gen.add_argument("--out", required=True, help="output JSON path")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_space_gen)

    p_val = space_sub.add_parser("validate", help="check the metric axioms")
    p_val.add_argument("--in", dest="input", required=True)
    _add_common(p_val)
    p_val.set_defaults(func=cmd_space_validate)

    p_onl = sub.add_parser("onl", help="localization ratio searches")
    onl_sub = p_onl.add_subparsers(dest="subcommand", required=True)
    p_prof = onl_sub.add_parser("profile", help="sampled worst-case profile")
    p_prof.add_argument("--space", required=True, help="space JSON path")
    p_prof.add_argument("--band-radius", type=radius, required=True)
    p_prof.add_argument("--loc-radius", type=radius, required=True)
    p_prof.add_argument("--samples", type=int, default=50)
    p_prof.add_argument("--budget", type=int, default=200)
    named = ", ".join(map(repr, certs.CERTIFICATE_SOURCES))
    p_prof.add_argument(
        "--certificate",
        default=None,
        help=f"{named}, or a certificate JSON path (adds the certified floor)",
    )
    p_prof.add_argument("--include-adjacency", action="store_true")
    p_prof.add_argument(
        "--out", required=True, help="output prefix (.json and .csv)"
    )
    _add_common(p_prof, seed_required=True)
    p_prof.set_defaults(func=cmd_onl_profile)

    p_cert = sub.add_parser("cert", help="build and check certificates")
    cert_sub = p_cert.add_subparsers(dest="subcommand", required=True)
    p_build = cert_sub.add_parser("build", help="construct a certificate")
    p_build.add_argument("--space", required=True)
    p_build.add_argument(
        "--kind", required=True, choices=certs.CERTIFICATE_SOURCES
    )
    p_build.add_argument("--radius", type=radius, required=True)
    p_build.add_argument(
        "--form", default="vector", choices=["subset", "vector", "kernel"]
    )
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_cert_build)

    p_check = cert_sub.add_parser("check", help="verify a certificate file")
    p_check.add_argument("--in", dest="input", required=True)
    p_check.add_argument("--band-radius", type=radius, default=None)
    p_check.set_defaults(func=cmd_cert_check)

    p_equiv = sub.add_parser("equiv", help="certificate-to-bound experiments")
    equiv_sub = p_equiv.add_subparsers(dest="subcommand", required=True)
    p_run = equiv_sub.add_parser("run", help="full equivalence experiment")
    p_run.add_argument("--space", required=True)
    p_run.add_argument("--band-radius", type=radius, required=True)
    p_run.add_argument("--loc-radius", type=radius, required=True)
    p_run.add_argument(
        "--certificate",
        default="ball",
        help=f"{named}, or a certificate JSON path",
    )
    p_run.add_argument("--samples", type=int, default=50)
    p_run.add_argument("--profile-samples", type=int, default=25)
    p_run.add_argument("--budget", type=int, default=100)
    p_run.add_argument(
        "--out", required=True, help="output prefix (.json and .csv)"
    )
    _add_common(p_run, seed_required=True)
    p_run.set_defaults(func=cmd_equiv_run)

    p_cb = sub.add_parser("cb", help="amplified norm consistency")
    cb_sub = p_cb.add_subparsers(dest="subcommand", required=True)
    p_cbc = cb_sub.add_parser("check", help="compare amplified and scalar ratios")
    p_cbc.add_argument("--space", required=True)
    p_cbc.add_argument("--band-radius", type=radius, required=True)
    p_cbc.add_argument("--loc-radius", type=radius, required=True)
    p_cbc.add_argument("--amplification", type=int, required=True)
    p_cbc.add_argument("--samples", type=int, default=100)
    p_cbc.add_argument(
        "--fraction-floor",
        type=_finite("the fraction floor"),
        default=0.95,
        help="least acceptable reduction norm fraction",
    )
    p_cbc.add_argument("--out", required=True, help="output JSON path")
    _add_common(p_cbc, seed_required=True)
    p_cbc.set_defaults(func=cmd_cb_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: each build leaves hundreds of objects in
    # reference cycles that only a garbage collection frees.
    return build_parser()


def main(argv=None) -> int:
    try:
        # Inside the try: the radius type refuses a non-finite radius with
        # DataError while parsing.
        args = _parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        # A missing file, a directory, a file that cannot be read or written.
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (ConvergenceFailure, VerificationError) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return VERIFY_EXIT
    except (DataError, NormlocError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
