"""Regression checks for the worked examples and identities.

Each check recomputes a displayed closed form from the engine and compares
it with the independently constructed right-hand side.  Results are
deterministic at a fixed precision, so the rendered report is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apps import DecompositionData, euler_factor_closed, euler_factor_direct
from .complexes import matrix_from_rows
from .fitting import PresentedModule, fitting_ideal
from .groupring import (
    GroupRingSpec,
    const,
    delta,
    norm_element,
    one,
    tvar,
    zero,
)
from .ideals import (
    FractionalIdeal,
    Ideal,
    frac_equal,
    ideal_equal,
    ideal_mul,
    ideal_pow,
    ideal_sum,
    integral,
    nzd_status,
)
from .shifts import ShiftRequest, shift_trivial, verify_thm01_identity


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    certified_precision: int | None
    detail: str


def _frac(spec, gens, den=None) -> FractionalIdeal:
    I = Ideal(spec, gens)
    if den is None:
        return integral(I)
    return FractionalIdeal(I, den, nzd_status(den))


def _compare(name, lhs, rhs) -> CheckResult:
    verdict = frac_equal(lhs, rhs)
    detail = f"T-precision {verdict.certified_t_precision}" if verdict.equal else "mismatch"
    return CheckResult(name, verdict.equal, verdict.certified_t_precision, detail)


def check_shift_s1(k: int = 4, N: int = 6, p: int = 3, m: int = 3) -> list[CheckResult]:
    """Cyclic group, one T variable: even shifts are (delta - 1, T), odd
    shifts are (norm, T) / T, for all integer n."""
    spec = GroupRingSpec(p, k, (m,), 1, N)
    tau = delta(spec, 1) - one(spec)
    t = tvar(spec, 1)
    even = _frac(spec, [tau, t])
    odd = _frac(spec, [norm_element(spec), t], t)
    out = []
    for n in (0, 1, 2, -1, -2, -3):
        expected = even if n % 2 == 0 else odd
        got = shift_trivial(ShiftRequest(spec, n))
        out.append(_compare(f"shift-cyclic-p{p}-m{m}-n{n}", got, expected))
    return out


def check_shift_s2(k: int = 4, N: int = 6, p: int = 3,
                   orders: tuple[int, int] = (3, 3)) -> list[CheckResult]:
    """Two cyclic factors, one T variable: the three displayed shifts."""
    spec = GroupRingSpec(p, k, orders, 1, N)
    tau1 = delta(spec, 1) - one(spec)
    tau2 = delta(spec, 2) - one(spec)
    t = tvar(spec, 1)
    n1 = norm_element(spec, [1])
    n2 = norm_element(spec, [2])
    nfull = norm_element(spec)
    rhs = {
        0: _frac(spec, [tau1, tau2, t]),
        1: _frac(spec, [nfull, n1 * t, n2 * t, tau1 * t, tau2 * t, t * t], t),
        2: _frac(spec, [tau1**2, tau1 * tau2, tau2**2, tau1 * n2, tau2 * n1,
                        tau1 * t, tau2 * t, n1 * t, n2 * t, t**2]),
    }
    tag = "x".join(str(m) for m in orders)
    return [
        _compare(f"shift-bicyclic-{tag}-n{n}",
                 shift_trivial(ShiftRequest(spec, n)), rhs[n])
        for n in (0, 1, 2)
    ]


def check_shift_d2_cyclic(k: int = 4, N: int = 5, p: int = 3,
                          m: int = 3) -> list[CheckResult]:
    """Cyclic group, two T variables: shifts 1 and 2 both equal
    (delta - 1, norm, T_1, T_2)."""
    spec = GroupRingSpec(p, k, (m,), 2, N)
    rhs = _frac(spec, [delta(spec, 1) - one(spec), norm_element(spec),
                       tvar(spec, 1), tvar(spec, 2)])
    return [
        _compare(f"shift-d2-cyclic-n{n}",
                 shift_trivial(ShiftRequest(spec, n)), rhs)
        for n in (1, 2)
    ]


def check_shift_d2_bicyclic(k: int = 3, N: int = 4, p: int = 3) -> list[CheckResult]:
    """Two cyclic factors, two T variables: the degree-two shift equals
    (tau_1, tau_2, T_1, T_2)(tau_1, tau_2, N_1, N_2, T_1, T_2)^2 + (N_full)^2."""
    spec = GroupRingSpec(p, k, (p, p), 2, N)
    tau1 = delta(spec, 1) - one(spec)
    tau2 = delta(spec, 2) - one(spec)
    t1, t2 = tvar(spec, 1), tvar(spec, 2)
    small = Ideal(spec, [tau1, tau2, t1, t2])
    big = Ideal(spec, [tau1, tau2, norm_element(spec, [1]),
                       norm_element(spec, [2]), t1, t2])
    rhs = ideal_sum(ideal_mul(small, ideal_pow(big, 2)),
                    ideal_pow(Ideal(spec, [norm_element(spec)]), 2))
    got = shift_trivial(ShiftRequest(spec, 2))
    return [_compare("shift-d2-bicyclic-n2", got, integral(rhs))]


def check_degree_two_kernel_identity(k: int = 4, N: int = 6,
                                     p: int = 3) -> list[CheckResult]:
    """shift^2(Z_p) = Fitt(coker d_3) / T^(s-1) for s = 1 and s = 2."""
    out = []
    for s, orders in ((1, (p,)), (2, (p, p))):
        spec = GroupRingSpec(p, k, orders, 1, N)
        verdict = verify_thm01_identity(spec)
        detail = (f"T-precision {verdict.certified_t_precision}"
                  if verdict.equal else "mismatch")
        out.append(CheckResult(f"degree-two-kernel-s{s}", verdict.equal,
                               verdict.certified_t_precision, detail))
    return out


def check_fitting_separation(k: int = 4, N: int = 6, p: int = 3) -> list[CheckResult]:
    """Two modules with equal group-ring Fitting ideals whose coefficient-level
    Fitting ideals differ: (m, T) T^2 versus (T^2)."""
    m = p
    spec = GroupRingSpec(p, k, (m,), 1, N)
    flat = GroupRingSpec(p, k, (), 1, N)
    tau = delta(spec, 1) - one(spec)
    t = tvar(spec, 1)

    # N = R/(tau, T)^2 and M = R/(tau, T) (+) R/(tau, T).
    pres_n = matrix_from_rows(spec, [[tau * tau, tau * t, t * t]])
    pres_m = matrix_from_rows(spec, [[tau, t, const(spec, 0), const(spec, 0)],
                                     [const(spec, 0), const(spec, 0), tau, t]])
    fit_n = fitting_ideal(PresentedModule(pres_n))
    fit_m = fitting_ideal(PresentedModule(pres_m))
    target = ideal_pow(Ideal(spec, [tau, t]), 2)
    same_upstairs = ideal_equal(fit_n, target) and ideal_equal(fit_m, target)

    tf = tvar(flat, 1)
    zf = zero(flat)
    mconst = const(flat, m)
    coeff_n = matrix_from_rows(flat, [[tf * tf, zf, zf], [zf, mconst, tf]])
    coeff_m = matrix_from_rows(flat, [[tf, zf], [zf, tf]])
    fit_cn = fitting_ideal(PresentedModule(coeff_n))
    fit_cm = fitting_ideal(PresentedModule(coeff_m))
    expected_cn = Ideal(flat, [mconst * tf * tf, tf * tf * tf])
    expected_cm = Ideal(flat, [tf * tf])
    shapes_ok = ideal_equal(fit_cn, expected_cn) and ideal_equal(fit_cm, expected_cm)
    differ_downstairs = not ideal_equal(fit_cn, fit_cm)

    ok = same_upstairs and shapes_ok and differ_downstairs
    detail = "equal upstairs, distinct coefficient-level ideals" if ok else "mismatch"
    return [CheckResult("fitting-separation", ok, None if not ok else spec.N, detail)]


def euler_grid(k: int = 4, N: int = 6) -> list[DecompositionData]:
    """Twelve local-data points: two primes, three inertia shapes, two residue
    sizes with matching unramified index."""
    points = []
    for p in (3, 5):
        for inertia in ((), (p,), (p, p)):
            for q in (2, 1 + p):
                if q == 2:
                    m_v = 2 if p == 3 else 4
                else:
                    m_v = 1
                orders = inertia + ((m_v,) if m_v > 1 else ())
                local = GroupRingSpec(p, k, orders, 1, N)
                frob = tuple(0 for _ in inertia) + ((1,) if m_v > 1 else ())
                points.append(DecompositionData(inertia, m_v, q, local, frob))
    return points


def check_euler_factors(k: int = 4, N: int = 6, full_grid: bool = False) -> list[CheckResult]:
    """The closed form (N_inertia, frob - q)/(frob - q) equals the untwisted
    (-1)-st shift at every grid point."""
    points = euler_grid(k, N)
    if not full_grid:
        points = [points[1], points[6]]
    out = []
    for data in points:
        name = (f"euler-p{data.local.p}-i{'x'.join(map(str, data.inertia_orders)) or '1'}"
                f"-m{data.m_v}-q{data.q}")
        closed = euler_factor_closed(data, assume_nzd=True)
        direct = euler_factor_direct(data, assume_nzd=True)
        out.append(_compare(name, closed, direct))
    return out


def run_paper_checks(k: int = 4, N: int = 6) -> list[CheckResult]:
    """All example checks at the given precision, in a fixed order."""
    results = []
    results += check_shift_s1(k, N, p=3, m=3)
    results += check_shift_s1(k, N, p=3, m=9)
    results += check_shift_s2(k, N, orders=(3, 3))
    results += check_shift_s2(k, N, orders=(3, 9))
    results += check_shift_d2_cyclic(k, min(N, 5))
    results += check_degree_two_kernel_identity(k, N)
    results += check_fitting_separation(k, N)
    results += check_euler_factors(k, N)
    results += check_shift_d2_bicyclic(min(k, 3), min(N, 4))
    return results


def render_report(results: list[CheckResult], k: int, N: int) -> str:
    lines = [f"paper regression report at precision k={k}, N={N}"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
