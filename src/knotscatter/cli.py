"""Command-line front end: moments, potentials, amplitudes, and self checks.

Subcommands
-----------
moments    multipole moments of a knot as JSON
potential  vector potential samples along a ray as CSV
amplitude  one reduced matrix element as JSON
sweep      seeded random kinematics sweep as CSV
factorize  torus-knot factorization residual report as JSON
selfcheck  oracle checks of knotscatter.oracles.selfcheck as JSON

Each subcommand accepts only the flags it reads; every one takes --out.

Exit codes: 0 success, 1 failed check, 2 configuration error, 3 numerical
non-convergence. All randomness uses numpy's PCG64 generator seeded from
--seed, so identical configurations produce byte-identical documents.
Angles are radians throughout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import oracles
from .born import (
    ScatteringKinematics,
    amplitude_to_dict,
    born_amplitude,
    factorization_residual,
    random_kinematics,
)
from .curves import KnotSpec, TorusKnot, UnknotXY, UnknotXZ, UnknotYZ, check_cutoff, moment_samples, sampled_from_json
from .multipole import dipole_moment, moments_to_dict, octopole_moments, quadrupole_moments
from .potential import FieldPoint, biot_savart_dipole_line, multipole_potential
from .specfun import NonConvergent

_PRESETS = {
    "unknot-xy": UnknotXY,
    "unknot-xz": UnknotXZ,
    "unknot-yz": UnknotYZ,
}


def parse_knot(text: str) -> KnotSpec:
    """Knot selector: torus:P,Q | unknot-xy | unknot-xz | unknot-yz | file:PATH."""
    if text in _PRESETS:
        return _PRESETS[text]()
    if text.startswith("torus:"):
        body = text[len("torus:") :]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"torus knot selector must be torus:P,Q, got {text!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError as err:
            raise ValueError(f"torus knot selector needs integer P,Q: {text!r}") from err
        return TorusKnot(p, q)
    if text.startswith("file:"):
        path = text[len("file:") :]
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError as err:
            raise ValueError(f"cannot read knot file {path!r}: {err}") from err
        except json.JSONDecodeError as err:
            raise ValueError(f"knot file {path!r} is not valid JSON: {err}") from err
        return sampled_from_json(document)
    raise ValueError(
        f"unknown knot selector {text!r}; expected torus:P,Q, unknot-xy, "
        "unknot-xz, unknot-yz, or file:PATH"
    )


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(document: dict, out_path: str | None) -> None:
    _emit(json.dumps(document, sort_keys=True, indent=2) + "\n", out_path)


def _emit_csv(header: list[str], rows: list[list], out_path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(cell) for cell in row))
    _emit("\n".join(lines) + "\n", out_path)


def _csv_cell(cell) -> str:
    if isinstance(cell, float):
        return format(cell, ".17g")
    return str(cell)


def _positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _coupling(value: float) -> None:
    if not (math.isfinite(value) and value != 0.0):
        raise ValueError(f"--coupling must be finite and nonzero, got {value}")


def cmd_moments(args) -> int:
    spec = parse_knot(args.knot)
    document = moments_to_dict(quadrupole_moments(spec), octopole_moments(spec))
    document["dipole"] = list(dipole_moment(spec))
    document["knot"] = spec.label()
    document["n_samples"] = moment_samples(spec)
    _emit_json(document, args.out)
    return 0


def cmd_potential(args) -> int:
    spec = parse_knot(args.knot)
    _positive("--r-min", args.r_min)
    if args.r_max < args.r_min:
        raise ValueError(f"--r-max must be >= --r-min, got {args.r_max} < {args.r_min}")
    if args.n_r < 1:
        raise ValueError(f"--n-r must be at least 1, got {args.n_r}")
    methods = ("multipole", "biot-savart") if args.method == "both" else (args.method,)
    radii = np.geomspace(args.r_min, args.r_max, int(args.n_r))
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    rows = []
    for method in methods:
        for r in radii:
            point = FieldPoint.from_spherical(float(r), args.theta, args.phi)
            if method == "multipole":
                value = multipole_potential(quad, octo, point, order=args.order)
            else:
                value = biot_savart_dipole_line(spec, point)
            rows.append([float(r), args.theta, args.phi, value.ax, value.ay, value.az, method])
    _emit_csv(["r", "theta", "phi", "Ax", "Ay", "Az", "method"], rows, args.out)
    return 0


def _kinematics_from_args(args) -> ScatteringKinematics:
    _positive("--k", args.k)
    _positive("--lambda0", args.lambda0)
    return ScatteringKinematics.from_angles(
        args.k, args.ki_theta, args.ki_phi, args.kn_theta, args.kn_phi, args.lambda0
    )


def cmd_amplitude(args) -> int:
    spec = parse_knot(args.knot)
    _coupling(args.coupling)
    kin = _kinematics_from_args(args)
    amp = born_amplitude(spec, kin, args.coupling)
    document = amplitude_to_dict(kin, amp)
    document["knot"] = spec.label()
    document["coupling"] = args.coupling
    _emit_json(document, args.out)
    return 0


def cmd_sweep(args) -> int:
    spec = parse_knot(args.knot)
    _positive("--k", args.k)
    _positive("--lambda0", args.lambda0)
    _coupling(args.coupling)
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    rng = np.random.default_rng(args.seed)
    kins = random_kinematics(rng, args.k, args.lambda0, int(args.n))
    rows = []
    for index, kin in enumerate(kins):
        amp = born_amplitude(spec, kin, args.coupling)
        rows.append(
            [index]
            + list(kin.k_i)
            + list(kin.k_n)
            + [
                amp.v1.real, amp.v1.imag,
                amp.v2.real, amp.v2.imag,
                amp.v3.real, amp.v3.imag,
                amp.v4.real, amp.v4.imag,
                amp.total.real, amp.total.imag,
                abs(amp.total) ** 2,
            ]
        )
    header = (
        ["index", "ki_x", "ki_y", "ki_z", "kn_x", "kn_y", "kn_z"]
        + ["v1_re", "v1_im", "v2_re", "v2_im", "v3_re", "v3_im", "v4_re", "v4_im"]
        + ["total_re", "total_im", "abs_total_sq"]
    )
    _emit_csv(header, rows, args.out)
    return 0


def cmd_factorize(args) -> int:
    _positive("--lambda0", args.lambda0)
    _positive("--threshold", args.threshold)
    # refuse bad windings or cutoff before drawing --n kinematics
    check_cutoff(TorusKnot(args.p, args.q), args.lambda0)
    if not 0 < args.k_min <= args.k_max:
        raise ValueError(f"need 0 < --k-min <= --k-max, got {args.k_min}, {args.k_max}")
    if args.n < 1:
        raise ValueError(f"--n must be at least 1, got {args.n}")
    rng = np.random.default_rng(args.seed)
    kins = [
        random_kinematics(rng, float(rng.uniform(args.k_min, args.k_max)), args.lambda0, 1)[0]
        for _ in range(int(args.n))
    ]
    residual = factorization_residual(args.p, args.q, kins)
    passed = bool(residual < args.threshold)
    document = {
        "p": args.p,
        "q": args.q,
        "n": args.n,
        "seed": args.seed,
        "k_min": args.k_min,
        "k_max": args.k_max,
        "lambda0": args.lambda0,
        "residual": residual,
        "threshold": args.threshold,
        "passed": passed,
    }
    _emit_json(document, args.out)
    return 0 if passed else 1


def cmd_selfcheck(args) -> int:
    _positive("--lambda0", args.lambda0)
    document, passed = oracles.selfcheck(args.lambda0, args.strict_tables)
    _emit_json(document, args.out)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotscatter",
        description=(
            "Multipole moments, vector potentials, and first-order scattering "
            "amplitudes of charged particles off knotted flux lines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {
        "--lambda0": dict(type=float, default=3.5, help="cutoff sphere radius (default 3.5)"),
        "--coupling": dict(type=float, default=1.0, help="coupling prefactor g (default 1.0)"),
        "--out": dict(default=None, help="output path (default stdout)"),
    }

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("moments", help="multipole moments of a knot")
    p.add_argument("--knot", required=True)
    add_shared(p, "--out")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("potential", help="vector potential samples along a ray")
    p.add_argument("--knot", required=True)
    p.add_argument("--r-min", type=float, default=10.0)
    p.add_argument("--r-max", type=float, default=100.0)
    p.add_argument("--n-r", type=int, default=10)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--phi", type=float, default=0.5)
    p.add_argument("--method", choices=("multipole", "biot-savart", "both"), default="both")
    p.add_argument("--order", choices=("quadrupole", "octopole"), default="octopole")
    add_shared(p, "--out")
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("amplitude", help="one reduced matrix element")
    p.add_argument("--knot", required=True)
    p.add_argument("--k", type=float, required=True, help="wave number |k_i| = |k_n|")
    p.add_argument("--ki-theta", type=float, required=True)
    p.add_argument("--ki-phi", type=float, required=True)
    p.add_argument("--kn-theta", type=float, required=True)
    p.add_argument("--kn-phi", type=float, required=True)
    add_shared(p, "--lambda0", "--coupling", "--out")
    p.set_defaults(func=cmd_amplitude)

    p = sub.add_parser("sweep", help="seeded random kinematics sweep")
    p.add_argument("--knot", required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    add_shared(p, "--lambda0", "--coupling", "--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("factorize", help="torus-knot factorization residual")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--k-min", type=float, default=0.2)
    p.add_argument("--k-max", type=float, default=2.0)
    p.add_argument("--threshold", type=float, default=1e-8)
    add_shared(p, "--lambda0", "--out")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("selfcheck", help="internal oracle suite")
    p.add_argument(
        "--strict-tables",
        action="store_true",
        help="treat known tabulated-coefficient discrepancies as failures",
    )
    add_shared(p, "--lambda0", "--out")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NonConvergent as err:
        print(f"non-convergent: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
