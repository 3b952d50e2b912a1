"""Shift invariants: closed forms, periodicity, well-definedness."""

import pytest

from iwafit import (
    FractionalIdeal,
    GroupRingSpec,
    Ideal,
    PresentedModule,
    SequenceData,
    ShiftRequest,
    UnsupportedShiftError,
    delta,
    frac_equal,
    integral,
    matrix_from_rows,
    norm_element,
    one,
    shift_from_sequence,
    shift_trivial,
    tvar,
    verify_thm01_identity,
)
from iwafit.errors import IwafitError
from iwafit.ideals import nzd_status


def test_cyclic_closed_forms():
    spec = GroupRingSpec(3, 4, (3,), 1, 6)
    tau = delta(spec, 1) - one(spec)
    t = tvar(spec, 1)
    even = integral(Ideal(spec, [tau, t]))
    odd = FractionalIdeal(Ideal(spec, [norm_element(spec), t]), t, nzd_status(t))
    for n in (-4, -2, 0, 2, 4):
        assert frac_equal(shift_trivial(ShiftRequest(spec, n)), even).equal
    for n in (-3, -1, 1, 3):
        assert frac_equal(shift_trivial(ShiftRequest(spec, n)), odd).equal


def test_trivial_group_shifts():
    spec = GroupRingSpec(3, 3, (), 1, 5)
    t = tvar(spec, 1)
    even = integral(Ideal(spec, [t]))
    # the norm over an empty factor set is 1, so the odd value is (1) / T
    odd = FractionalIdeal(Ideal(spec, [one(spec)]), t, nzd_status(t))
    for n in (-2, 0, 2):
        assert frac_equal(shift_trivial(ShiftRequest(spec, n)), even).equal
    for n in (-3, -1, 1):
        assert frac_equal(shift_trivial(ShiftRequest(spec, n)), odd).equal


def test_two_periodicity_for_cyclic_d2():
    spec = GroupRingSpec(3, 3, (3,), 2, 4)
    a = shift_trivial(ShiftRequest(spec, 1))
    b = shift_trivial(ShiftRequest(spec, 3))
    c = shift_trivial(ShiftRequest(spec, -1))
    assert frac_equal(a, b).equal
    assert frac_equal(a, c).equal


def test_unsupported_negative_regime():
    spec = GroupRingSpec(3, 2, (3, 3), 2, 3)
    with pytest.raises(UnsupportedShiftError):
        shift_trivial(ShiftRequest(spec, -1))


def test_request_validation():
    spec = GroupRingSpec(3, 2, (3,), 1, 3)
    flat = GroupRingSpec(3, 2, (3,), 0, 3)
    with pytest.raises(ValueError):
        ShiftRequest(flat, 0)  # no T variable to shift against
    with pytest.raises(ValueError):
        ShiftRequest(spec, 0, generator_powers=(3,))  # not coprime
    with pytest.raises(ValueError):
        ShiftRequest(spec, 0, generator_powers=(1, 1))
    with pytest.raises(ValueError):
        ShiftRequest(spec, 0, factor_order=(2,))


def test_well_definedness_sample():
    spec = GroupRingSpec(3, 3, (3, 9), 1, 4)
    base = shift_trivial(ShiftRequest(spec, 2))
    # changing generators and factor order leaves the value unchanged
    for powers, order in (((2, 2), None), ((1, 4), (2, 1)), ((2, 7), (2, 1))):
        other = shift_trivial(ShiftRequest(spec, 2, generator_powers=powers,
                                           factor_order=order))
        assert frac_equal(base, other).equal


def test_degree_two_kernel_identity():
    for s, orders in ((1, (3,)), (2, (3, 3))):
        spec = GroupRingSpec(3, 4, orders, 1, 6)
        verdict = verify_thm01_identity(spec)
        assert verdict.equal
        # both sides carry a T^(s-1)-degree denominator
        assert verdict.certified_t_precision == spec.N - 2 * (s - 1)


def test_shift_from_sequence_alternates():
    spec = GroupRingSpec(3, 3, (3,), 1, 5)
    t = tvar(spec, 1)
    tau = delta(spec, 1) - one(spec)
    P1 = PresentedModule(matrix_from_rows(spec, [[t]]))
    P2 = PresentedModule(matrix_from_rows(spec, [[t * t]]))
    N = PresentedModule(matrix_from_rows(spec, [[tau, t]]))
    out = shift_from_sequence(SequenceData(((P1, t), (P2, t * t)), N, 2))
    assert out.denominator == t
    expected = Ideal(spec, [tau * t * t, t * t * t])
    assert frac_equal(out, FractionalIdeal(expected, t, nzd_status(t))).equal


def test_shift_from_sequence_rejects_bad_generator():
    spec = GroupRingSpec(3, 3, (3,), 1, 5)
    t = tvar(spec, 1)
    P1 = PresentedModule(matrix_from_rows(spec, [[t]]))
    N = PresentedModule(matrix_from_rows(spec, [[t]]))
    with pytest.raises(IwafitError):
        shift_from_sequence(SequenceData(((P1, t * t),), N, 1))
    with pytest.raises(ValueError):
        SequenceData(((P1, t),), N, 2)


def test_precision_error_is_raised_before_minor_work():
    # n = 3 over three cyclic factors has denominator T^4, which vanishes at
    # N = 4; the error must come from the complex ranks, not after the minors.
    import time

    from iwafit import PrecisionError

    spec = GroupRingSpec(3, 4, (3, 3, 3), 1, 4)
    start = time.perf_counter()
    with pytest.raises(PrecisionError, match="N >= 5") as info:
        shift_trivial(ShiftRequest(spec, 3))
    assert time.perf_counter() - start < 1.0
    assert info.value.needed_N == 5
    # one more unit of precision is enough
    value = shift_trivial(ShiftRequest(GroupRingSpec(3, 2, (3, 3, 3), 1, 5), 3))
    assert value.denominator == tvar(value.spec, 1) ** 4
