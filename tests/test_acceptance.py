"""End-to-end checks of the package's headline numeric claims.

Each test covers one acceptance item, prints a single PASS or FAIL line with
the measured numbers next to the stated tolerance, and asserts on the
verdict. Runtime budgets are enforced alongside the numeric checks.
"""

import math
import time

import numpy as np
from scipy.spatial.transform import Rotation

from knotscatter import (
    DirectionCosineMonomial,
    FieldPoint,
    SampledCurve,
    ScatteringKinematics,
    TorusKnot,
    UnknotXY,
    UnknotXZ,
    UnknotYZ,
    biot_savart_dipole_line,
    born_amplitude,
    factorization_residual,
    multipole_potential,
    octopole_moments,
    quadrupole_moments,
    random_kinematics,
    sphere_quadrature_bracket,
)
from knotscatter.curves import sampled_from_spec
from knotscatter.multipole import dipole_moment
from knotscatter.oracles import (
    TABULATED_BRACKETS,
    angular_bracket,
    discrepancy_report,
    divergence_multipole,
    monomial_expansion,
    radial_A_closed,
    radial_B_closed,
    radial_quadrature,
    radial_reference,
    triple_product_residual,
    vni_bruteforce,
)

PI = math.pi
PAIRS = ((2, 3), (3, 2), (2, 5), (3, 4))


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_c1_torus_quadrupole_values():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for p, q in PAIRS:
        quad = quadrupole_moments(TorusKnot(p, q))
        scale = 9.0 * p * PI / 2.0
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 2] = expected[0, 2, 0] = scale
        expected[1, 1, 2] = expected[1, 2, 1] = scale
        expected[2, 0, 0] = expected[2, 1, 1] = -scale
        dev = max(
            abs(quad.K[0]),
            abs(quad.K[1]),
            abs(quad.K[2] + scale),
            float(np.max(np.abs(quad.Q_tensor - expected))),
            float(np.max(np.abs(quad.Q_trace - np.array([0.0, 0.0, 2.0 * scale])))),
        ) / scale
        worst = max(worst, dev)
        ok &= dev < 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert _verdict(
        "torus quadrupole values",
        ok,
        f"worst relative deviation {worst:.3e} (tol 1e-10) over pairs {PAIRS}, "
        f"{elapsed:.2f} s (budget 1 s)",
    )


def test_c2_octopole_tabulated_values():
    start = time.perf_counter()
    failures = []
    worst = 0.0

    def check(label, got, want, scale):
        nonlocal worst
        dev = abs(got - want) / scale
        worst = max(worst, dev)
        if dev >= 1e-10:
            failures.append(f"{label} got {got:+.6e} want {want:+.6e}")

    for p, q in PAIRS:
        octo = octopole_moments(TorusKnot(p, q))
        O, Oc = octo.O_tensor, octo.O_contracted
        s = 2.0 * q * PI
        check(f"({p},{q}) O[x,yyy]", O[0, 1, 1, 1], s, s)
        check(f"({p},{q}) O[x,xxy]", O[0, 0, 0, 1], s, s)
        check(f"({p},{q}) O[x,yzz]", O[0, 1, 2, 2], s, s)
        check(f"({p},{q}) Oc[x,y]", Oc[0, 1], 5.0 * s, 5.0 * s)
        check(f"({p},{q}) O[y,xxx]", O[1, 0, 0, 0], -s, s)
        check(f"({p},{q}) O[y,xyy]", O[1, 0, 1, 1], -s, s)
        check(f"({p},{q}) O[y,xzz]", O[1, 0, 2, 2], -s, s)
        check(f"({p},{q}) Oc[y,x]", Oc[1, 0], -5.0 * s, 5.0 * s)
        check(f"({p},{q}) O[z,xyz]", O[2, 0, 1, 2], 0.0, s)

    xz = octopole_moments(UnknotXZ())
    check("unknot-xz O[x,xxy]", xz.O_tensor[0, 0, 0, 1], -4.0 * PI, 4.0 * PI)
    check("unknot-xz Oc[x,y]", xz.O_contracted[0, 1], -4.0 * PI, 4.0 * PI)
    check("unknot-xz O[y,xxx]", xz.O_tensor[1, 0, 0, 0], 4.0 * PI, 4.0 * PI)
    check("unknot-xz O[y,xzz]", xz.O_tensor[1, 0, 2, 2], 4.0 * PI, 4.0 * PI)
    check("unknot-xz Oc[y,x]", xz.O_contracted[1, 0], 16.0 * PI, 16.0 * PI)
    check("unknot-xz O[z,xyz]", xz.O_tensor[2, 0, 1, 2], -4.0 * PI, 4.0 * PI)

    yz = octopole_moments(UnknotYZ())
    check("unknot-yz O[x,yyy]", yz.O_tensor[0, 1, 1, 1], -4.0 * PI, 4.0 * PI)
    check("unknot-yz O[x,yzz]", yz.O_tensor[0, 1, 2, 2], -4.0 * PI, 4.0 * PI)
    check("unknot-yz Oc[x,y]", yz.O_contracted[0, 1], -16.0 * PI, 16.0 * PI)
    check("unknot-yz O[y,xyy]", yz.O_tensor[1, 0, 1, 1], 4.0 * PI, 4.0 * PI)
    check("unknot-yz Oc[y,x]", yz.O_contracted[1, 0], 4.0 * PI, 4.0 * PI)
    check("unknot-yz O[z,xyz]", yz.O_tensor[2, 0, 1, 2], 4.0 * PI, 4.0 * PI)

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    summary = f"worst relative deviation {worst:.3e} (tol 1e-10), {elapsed:.2f} s (budget 1 s)"
    if failures:
        summary += "; deviating entries: " + "; ".join(failures)
    assert _verdict("octopole tabulated values", ok, summary)


def test_c3_moment_factorization():
    start = time.perf_counter()
    planar = quadrupole_moments(UnknotXY())
    xz = octopole_moments(UnknotXZ())
    yz = octopole_moments(UnknotYZ())
    ok = True
    details = []
    for p, q in PAIRS:
        quad = quadrupole_moments(TorusKnot(p, q))
        octo = octopole_moments(TorusKnot(p, q))
        dev_q = max(
            float(np.max(np.abs(quad.K - 0.5 * p * planar.K))),
            float(np.max(np.abs(quad.Q_tensor - 0.5 * p * planar.Q_tensor))),
            float(np.max(np.abs(quad.Q_trace - 0.5 * p * planar.Q_trace))),
        ) / (4.5 * p * PI)
        dev_o = max(
            float(np.max(np.abs(octo.O_tensor + 0.5 * q * (xz.O_tensor + yz.O_tensor)))),
            float(np.max(np.abs(octo.O_contracted + 0.5 * q * (xz.O_contracted + yz.O_contracted)))),
        ) / (10.0 * q * PI)
        details.append(f"({p},{q}) quad {dev_q:.2e} octo {dev_o:.2e}")
        ok &= dev_q < 1e-10 and dev_o < 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert _verdict(
        "moment-level factorization",
        ok,
        f"relative deviations (tol 1e-10): {'; '.join(details)}; {elapsed:.2f} s (budget 1 s)",
    )


def test_c4_radial_closed_form_vs_quadrature():
    start = time.perf_counter()
    lambda0 = 3.5
    worst_closed = 0.0
    worst_pair = 0.0
    for a in (0.3, 0.5, 1.0, 2.0, 5.0, 10.0):
        k = a / lambda0
        quad_a = radial_quadrature(-1.5, 2, k, lambda0)
        worst_closed = max(worst_closed, abs(radial_A_closed(2, k, lambda0) - quad_a) / abs(quad_a))
        quad_b = radial_quadrature(-2.5, 3, k, lambda0) / k
        worst_closed = max(worst_closed, abs(radial_B_closed(3, k, lambda0) - quad_b) / abs(quad_b))
        # degenerate orders have no closed form: two independent schemes instead
        for weight, l in ((-1.5, 0), (-2.5, 1)):
            one = radial_quadrature(weight, l, k, lambda0)
            two = radial_reference(weight, l, k, lambda0)
            worst_pair = max(worst_pair, abs(one - two) / max(abs(two), 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst_closed <= 1e-7 and worst_pair <= 1e-8 and elapsed < 10.0
    assert _verdict(
        "radial closed forms vs quadrature",
        ok,
        f"closed-vs-quadrature {worst_closed:.3e} (tol 1e-7), degenerate two-scheme "
        f"{worst_pair:.3e} (tol 1e-8), {elapsed:.2f} s (budget 10 s)",
    )


def test_c5_angular_tables_and_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_entry = 0.0
    for exponents, table in TABULATED_BRACKETS.items():
        computed = monomial_expansion(DirectionCosineMonomial(exponents)).terms
        for key, value in table.items():
            worst_entry = max(worst_entry, abs(complex(value) - complex(computed.get(key, 0.0))))
    worst_bracket = 0.0
    for exponents in TABULATED_BRACKETS:
        mono = DirectionCosineMonomial(exponents)
        coeffs = {(l, m): complex(rng.normal(), rng.normal()) for l in range(4) for m in range(-l, l + 1)}
        worst_bracket = max(
            worst_bracket, abs(angular_bracket(mono, coeffs) - sphere_quadrature_bracket(mono, coeffs))
        )
    report = discrepancy_report()
    report_ok = (
        len(report) == 1
        and report[0]["monomial"] == [1, 0, 2]
        and (report[0]["l"], report[0]["m"]) == (1, 1)
    )
    worst_identity = 0.0
    for _ in range(100):
        theta = float(rng.uniform(0.02, PI - 0.02))
        phi = float(rng.uniform(0.0, 2.0 * PI))
        worst_identity = max(worst_identity, triple_product_residual(theta, phi))
    elapsed = time.perf_counter() - start
    ok = (
        worst_entry <= 1e-11
        and worst_bracket <= 1e-11
        and report_ok
        and worst_identity <= 1e-12
        and elapsed < 5.0
    )
    report_text = (
        "report lists exactly the known alternate coefficient"
        if report_ok
        else f"report unexpected: {report!r}"
    )
    assert _verdict(
        "angular tables and identities",
        ok,
        f"table entries {worst_entry:.3e} and brackets {worst_bracket:.3e} (tol 1e-11), "
        f"{report_text}, triple products {worst_identity:.3e} at 100 angles (tol 1e-12), "
        f"{elapsed:.2f} s (budget 5 s)",
    )


def test_c6_far_field_potential_oracle():
    start = time.perf_counter()
    spec = TorusKnot(2, 3)
    quad = quadrupole_moments(spec)
    octo = octopole_moments(spec)
    radii = np.geomspace(30.0, 300.0, 8)
    rng = np.random.default_rng(7)
    slopes = []
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        points = [FieldPoint.from_cartesian(*(r * direction)) for r in radii]
        exact = np.array([biot_savart_dipole_line(spec, pt).vector for pt in points])
        approx = np.array([multipole_potential(quad, octo, pt).vector for pt in points])
        gap = np.linalg.norm(exact - approx, axis=1)
        slopes.append(float(np.polyfit(np.log(radii), np.log(gap), 1)[0]))
    slope_ok = all(abs(s + 5.0) <= 0.3 for s in slopes)
    worst_div = 0.0
    for _ in range(3):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        point = FieldPoint.from_cartesian(*(float(rng.uniform(20.0, 80.0)) * direction))
        magnitude = multipole_potential(quad, octo, point).magnitude
        worst_div = max(worst_div, abs(divergence_multipole(quad, octo, point)) / (magnitude / point.r))
    elapsed = time.perf_counter() - start
    ok = slope_ok and worst_div <= 1e-6 and elapsed < 30.0
    assert _verdict(
        "far-field potential oracle",
        ok,
        f"20 fitted decay slopes in [{min(slopes):.3f}, {max(slopes):.3f}] (target -5 +- 0.3), "
        f"scaled divergence {worst_div:.3e} (tol 1e-6), {elapsed:.1f} s (budget 30 s)",
    )


def test_c7_matrix_element_vs_volume_quadrature():
    start = time.perf_counter()
    spec = TorusKnot(2, 3)
    kins = random_kinematics(np.random.default_rng(11), 0.5, 3.5, 3)
    worst = 0.0
    for kin in kins:
        closed = born_amplitude(spec, kin).total
        direct = vni_bruteforce(spec, kin, r_max=200.0)
        worst = max(worst, abs(direct - closed) / abs(closed))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and elapsed < 300.0
    assert _verdict(
        "matrix element vs volume quadrature",
        ok,
        f"worst relative gap {worst:.3e} over 3 kinematics at k=0.5 (tol 1e-2), "
        f"{elapsed:.1f} s (budget 300 s)",
    )


def test_c8_amplitude_factorization():
    start = time.perf_counter()
    worst = 0.0
    for index, (p, q) in enumerate(((2, 3), (3, 4))):
        rng = np.random.default_rng(100 + index)
        kins = [
            random_kinematics(rng, float(rng.uniform(0.2, 2.0)), 3.5, 1)[0]
            for _ in range(20)
        ]
        worst = max(worst, factorization_residual(p, q, kins))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 30.0
    assert _verdict(
        "torus-knot amplitude factorization",
        ok,
        f"worst residual {worst:.3e} over 20 seeded kinematics each for (2,3) and (3,4) "
        f"(tol 1e-9), {elapsed:.1f} s (budget 30 s)",
    )


def test_c9_structural_properties():
    start = time.perf_counter()
    spec = TorusKnot(2, 3)
    kin = ScatteringKinematics.from_angles(0.5, 0.4, 1.1, 2.0, -0.6)

    forward = born_amplitude(spec, kin)
    backward = born_amplitude(spec, kin.swapped())
    herm = max(
        abs(backward.v1 - forward.v1.conjugate()),
        abs(backward.v2 - forward.v2.conjugate()),
        abs(backward.v3 - forward.v3.conjugate()),
        abs(backward.v4 - forward.v4.conjugate()),
    ) / abs(forward.total)

    base = sampled_from_spec(spec, 128)
    rotation = Rotation.from_rotvec([0.3, -0.5, 1.2]).as_matrix()
    rotated = SampledCurve.from_array(np.asarray(base.points) @ rotation.T)
    kin_rot = ScatteringKinematics(
        k_i=tuple(rotation @ np.array(kin.k_i)),
        k_n=tuple(rotation @ np.array(kin.k_n)),
        lambda0=kin.lambda0,
    )
    reference = born_amplitude(base, kin).total
    cov = abs(born_amplitude(rotated, kin_rot).total - reference) / abs(reference)

    k_i = (0.21, -0.33, 0.29)
    back = born_amplitude(spec, ScatteringKinematics(k_i=k_i, k_n=tuple(-c for c in k_i)))
    back_total = abs(back.total)

    worst_dipole = max(
        float(np.max(np.abs(dipole_moment(s))))
        for s in (TorusKnot(2, 3), TorusKnot(3, 4), UnknotXY(), UnknotXZ(), UnknotYZ())
    )
    elapsed = time.perf_counter() - start
    ok = herm <= 1e-10 and cov <= 1e-9 and back_total <= 1e-12 and worst_dipole <= 1e-12
    assert _verdict(
        "structural properties",
        ok,
        f"conjugation under momentum exchange {herm:.3e} (tol 1e-10), rotational covariance "
        f"{cov:.3e} (tol 1e-9), backscattering |amplitude| {back_total:.3e} (tol 1e-12), "
        f"dipole moments {worst_dipole:.3e} (tol 1e-12), {elapsed:.1f} s",
    )
