"""Acceptance gate: one test per published criterion, at the stated
precisions and runtime budgets."""

import time
from itertools import product

import numpy as np
import pytest

from iwafit import (
    FractionalIdeal,
    GroupRingSpec,
    Ideal,
    PresentedModule,
    SequenceData,
    ShiftRequest,
    delta,
    fitting_ideal,
    frac_equal,
    ideal_equal,
    integral,
    matrix_from_rows,
    norm_element,
    one,
    shift_from_sequence,
    shift_trivial,
    transpose_dual,
    tvar,
    verify_thm01_identity,
)
from iwafit.ideals import nzd_status
from iwafit.linalg import CoeffMatrix, same_span
from iwafit.paperchecks import (
    check_euler_factors,
    check_fitting_separation,
    check_shift_d2_bicyclic,
    check_shift_d2_cyclic,
    check_shift_s2,
)

from conftest import random_element
from referees import fitting_ideal_naive
from test_linalg import enumerate_span


def timed(budget):
    """Context manager asserting the body ran within ``budget`` seconds."""

    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.monotonic() - self.start
            if exc == (None, None, None):
                assert self.elapsed < budget, (
                    f"runtime {self.elapsed:.2f}s exceeds the {budget}s budget"
                )
            return False

    return _Timer()


def test_criterion_01_cyclic_shifts_all_integers():
    for p, me, (k, N) in product((3, 5), (1, 2), ((4, 6), (6, 8))):
        m = p**me
        spec = GroupRingSpec(p, k, (m,), 1, N)
        t = tvar(spec, 1)
        even = integral(Ideal(spec, [delta(spec, 1) - one(spec), t]))
        odd = FractionalIdeal(Ideal(spec, [norm_element(spec), t]), t,
                              nzd_status(t))
        for n in (0, 2, 4, -2, -4, 1, 3, -1, -3):
            expected = even if n % 2 == 0 else odd
            with timed(1.0):
                got = shift_trivial(ShiftRequest(spec, n))
                verdict = frac_equal(got, expected)
            assert verdict.equal, f"p={p} m={m} k={k} N={N} n={n}"


def test_criterion_02_bicyclic_shifts_match_displayed_ideals():
    for orders in ((3, 3), (3, 9)):
        with timed(10.0):
            results = check_shift_s2(k=4, N=6, orders=orders)
        assert len(results) == 3
        for r in results:
            assert r.passed, r.name


def test_criterion_03_two_variable_cyclic_shift():
    with timed(30.0):
        results = check_shift_d2_cyclic(k=4, N=5, p=3, m=3)
    for r in results:
        assert r.passed, r.name


def test_criterion_04_two_variable_bicyclic_shift():
    with timed(600.0):
        results = check_shift_d2_bicyclic(k=3, N=4, p=3)
    for r in results:
        assert r.passed, r.name


def test_criterion_05_degree_two_kernel_identity():
    for orders in ((3,), (3, 3)):
        spec = GroupRingSpec(3, 4, orders, 1, 6)
        assert verify_thm01_identity(spec).equal


def test_criterion_06_euler_factor_grid():
    with timed(5.0):
        results = check_euler_factors(k=4, N=6, full_grid=True)
    assert len(results) == 12
    for r in results:
        assert r.passed, r.name


def test_criterion_07_well_definedness_trials():
    rng = np.random.default_rng(7)
    specs = [
        GroupRingSpec(3, 3, (3,), 1, 4),
        GroupRingSpec(3, 3, (9,), 1, 4),
        GroupRingSpec(3, 3, (3, 3), 1, 4),
        GroupRingSpec(5, 2, (5,), 1, 4),
        GroupRingSpec(3, 2, (3,), 2, 3),
    ]
    failures = 0
    trials = 0
    # generator substitutions and factor permutations, 150 trials
    while trials < 150:
        spec = specs[int(rng.integers(len(specs)))]
        n = int(rng.integers(0, 3))
        powers = tuple(
            int(rng.choice([u for u in range(1, m) if np.gcd(u, m) == 1]))
            for m in spec.orders
        )
        order = list(range(1, spec.s + 1))
        rng.shuffle(order)
        base = shift_trivial(ShiftRequest(spec, n))
        varied = shift_trivial(ShiftRequest(spec, n, generator_powers=powers,
                                            factor_order=tuple(order)))
        failures += not frac_equal(base, varied).equal
        trials += 1
    # sequence padding: appending a P with unit Fitting generator twice
    # (an even block) leaves the sequence value unchanged, 50 trials
    spec = specs[0]
    while trials < 200:
        t = tvar(spec, 1)
        g = t ** int(rng.integers(1, 3))
        P = PresentedModule(matrix_from_rows(spec, [[g]]))
        unit = PresentedModule(matrix_from_rows(spec, [[one(spec)]]))
        N_mod = PresentedModule(
            matrix_from_rows(spec, [[random_element(spec, rng), t]])
        )
        short = shift_from_sequence(SequenceData(((P, g),), N_mod, 1))
        padded = shift_from_sequence(
            SequenceData(((P, g), (unit, one(spec)), (unit, one(spec))),
                         N_mod, 3)
        )
        failures += not frac_equal(short, padded).equal
        trials += 1
    assert trials == 200
    assert failures == 0


def test_criterion_08_fitting_separation():
    results = check_fitting_separation(k=4, N=6, p=3)
    for r in results:
        assert r.passed, r.detail


def test_criterion_09_linear_algebra_oracle():
    rng = np.random.default_rng(9)
    disagreements = 0
    instances = 0
    # span comparison against brute-force enumeration
    for _ in range(300):
        p, k = (2, 2) if rng.integers(2) else (3, 1)
        mod = p**k
        ncols = int(rng.integers(1, 3))
        A = rng.integers(0, mod, size=(int(rng.integers(1, 4)), ncols))
        B = rng.integers(0, mod, size=(int(rng.integers(1, 4)), ncols))
        expected = enumerate_span(A, mod, ncols) == enumerate_span(B, mod, ncols)
        got = same_span(CoeffMatrix(p, k, ncols, tuple(map(tuple, A))),
                        CoeffMatrix(p, k, ncols, tuple(map(tuple, B))))
        disagreements += got != expected
        instances += 1
    # Fitting ideals against the independent cofactor expansion
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    for _ in range(200):
        a = int(rng.integers(1, 5))
        b = int(rng.integers(1, 7))
        h = matrix_from_rows(
            spec, [[random_element(spec, rng) for _ in range(b)] for _ in range(a)]
        )
        m = PresentedModule(h)
        disagreements += not ideal_equal(fitting_ideal(m), fitting_ideal_naive(m))
        instances += 1
    assert instances >= 500
    assert disagreements == 0


def test_criterion_10_duality_suite():
    rng = np.random.default_rng(10)
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    for _ in range(100):
        a = int(rng.integers(1, 4))
        h = matrix_from_rows(
            spec, [[random_element(spec, rng) for _ in range(a)] for _ in range(a)]
        )
        m = PresentedModule(h)
        assert ideal_equal(fitting_ideal(m), fitting_ideal(transpose_dual(m)))
    # shift duality: the -2/0 identity holds for every d = 1 group, the
    # -1/1 identity is a theorem for cyclic groups
    for orders in ((), (3,), (9,), (3, 3)):
        s = GroupRingSpec(3, 3, orders, 1, 4)
        assert frac_equal(shift_trivial(ShiftRequest(s, -2)),
                          shift_trivial(ShiftRequest(s, 0))).equal
    for orders in ((), (3,), (9,)):
        s = GroupRingSpec(3, 3, orders, 1, 4)
        assert frac_equal(shift_trivial(ShiftRequest(s, -1)),
                          shift_trivial(ShiftRequest(s, 1))).equal
