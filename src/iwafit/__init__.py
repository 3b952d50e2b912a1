"""Fitting ideals and their shifts over truncated Iwasawa-type group rings.

The base ring is R = (Z/p^k)[d_1..d_s][T_1..T_d] / (d_i^(m_i) - 1, T_j^N),
a finite model of Z_p[[T_1..T_d]][Delta] at working precision (k, N).
The library provides exact ring arithmetic, Howell-canonical ideal
comparison, Fitting ideals of presentation matrices, standard resolutions
and their tensor products, the shift invariants of the trivial module, and
the two-route Euler-factor computation.
"""

from .apps import (
    DecompositionData,
    euler_character,
    euler_factor_closed,
    euler_factor_direct,
)
from .complexes import (
    ChainComplex,
    RingMatrix,
    cyclic_complex,
    matrix_from_rows,
    t_complex,
    tensor,
    trivial_complex,
)
from .errors import IwafitError, ParseError, PrecisionError, SpecMismatchError
from .fitting import (
    PresentedModule,
    fitting_ideal,
    lift_presentation,
    lifted_fitting_ideal,
    transpose_dual,
)
from .groupring import (
    Character,
    GroupRingSpec,
    RingElement,
    RingHom,
    all_characters,
    apply_hom,
    augmentation,
    char_eval,
    const,
    cyclotomic_poly,
    delta,
    from_vector,
    group_like,
    make_element,
    mul,
    norm_element,
    one,
    quotient_hom,
    tvar,
    twist_hom,
    zero,
)
from .ideals import (
    FracVerdict,
    FractionalIdeal,
    Ideal,
    frac_equal,
    ideal_equal,
    ideal_mul,
    ideal_pow,
    ideal_sum,
    integral,
    nzd_certificate,
    nzd_status,
    scale_ideal,
    unit_ideal,
    zero_ideal,
)
from .linalg import CoeffMatrix, howell_form, member, same_span
from .parser import element_to_text, parse_element
from .shifts import (
    SequenceData,
    ShiftRequest,
    UnsupportedShiftError,
    b_delta_module,
    resolution_complex,
    shift_from_sequence,
    shift_trivial,
    verify_thm01_identity,
)

__version__ = "0.1.0"
