"""Every array-backed value is read-only, equal by content and unhashable.

The dataclasses of the library that hold numpy arrays subclass
``linalg.ArrayValue`` and are declared with ``eq=False``: with eq on, the
dataclass decorator would replace the base's ``__eq__`` and add a hash of
the fields, which hashes such a value by its spec alone.  An AST scan of
the library keeps every dataclass with an ``np.ndarray`` field that way.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import iwafit
from iwafit import (
    GroupRingSpec,
    apply_hom,
    char_eval,
    delta,
    from_vector,
    make_element,
    mul,
    quotient_hom,
    tvar,
    twist_hom,
)
from iwafit import groupring, ideals, parser
from iwafit.complexes import RingMatrix, matrix_from_rows
from iwafit.groupring import Character, CyclotomicElement, RingElement, RingHom
from iwafit.linalg import CoeffMatrix

MODULES = sorted(Path(iwafit.__file__).parent.glob("*.py"))


def unguarded_dataclasses(source: str) -> list[str]:
    """The dataclasses of ``source`` with a field annotated ``np.ndarray``
    that lack ``eq=False`` or do not subclass ``ArrayValue``."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d for d in node.decorator_list if _names_dataclass(d)]
        if not decorators:
            continue
        if not any(isinstance(stmt, ast.AnnAssign) and "ndarray" in ast.unparse(stmt.annotation)
                   for stmt in node.body):
            continue
        dec = decorators[0]
        eq_off = isinstance(dec, ast.Call) and any(
            kw.arg == "eq" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in dec.keywords)
        base = any(ast.unparse(b).split(".")[-1] == "ArrayValue" for b in node.bases)
        if not (eq_off and base):
            bad.append(f"{node.name} (line {node.lineno})")
    return bad


def _names_dataclass(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return ast.unparse(func).split(".")[-1] == "dataclass"


def test_scanner_finds_an_unguarded_dataclass():
    source = """
@dataclass(frozen=True)
class Hashed:
    coeffs: np.ndarray

@dataclass(frozen=True, eq=False)
class NoBase:
    coeffs: np.ndarray

@dataclasses.dataclass
class Plain(ArrayValue):
    rows: "np.ndarray"

@dataclass(frozen=True, eq=False)
class Good(ArrayValue):
    coeffs: np.ndarray

@dataclass(frozen=True)
class NoArrays:
    n: int

class NotADataclass:
    coeffs: np.ndarray
"""
    assert unguarded_dataclasses(source) == [
        "Hashed (line 3)", "NoBase (line 7)", "Plain (line 11)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_array_dataclasses_are_values(path):
    assert unguarded_dataclasses(path.read_text()) == []


SPEC = GroupRingSpec(3, 2, (3,), 1, 3)


def values():
    """One value of each array-backed type."""
    x = tvar(SPEC, 1)
    chi = Character(SPEC, (1,))
    return [
        x,
        matrix_from_rows(SPEC, [[x, x]]),
        char_eval(chi, x),
        CoeffMatrix(3, 2, 2, ((1, 2),)),
        twist_hom(SPEC, (1,), (4,)),
    ]


@pytest.mark.parametrize("value", values(), ids=lambda v: type(v).__name__)
def test_values_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_element_coefficients_are_read_only():
    x = make_element(SPEC, {(1, 1): 2})
    h = quotient_hom(SPEC, kill_t=[1])
    results = [
        tvar(SPEC, 1),
        x,
        mul(x, x),
        apply_hom(h, x),
        apply_hom(twist_hom(SPEC, (1,), (4,)), x),
        from_vector(SPEC, np.arange(SPEC.size)),
        matrix_from_rows(SPEC, [[x]]).at(0, 0),
    ]
    for y in results:
        with pytest.raises(ValueError):
            y.coeffs[0] = 1


def test_passed_arrays_become_read_only():
    c = np.zeros(SPEC.size, dtype=np.int64)
    RingElement(SPEC, c)
    assert not c.flags.writeable
    A = CoeffMatrix(3, 2, 2, np.array([[1, 2]]))
    assert not A.rows.flags.writeable and not A.cols.flags.writeable
    z = CyclotomicElement(9, 3, np.zeros((2, 3), dtype=np.int64))
    assert not z.coeffs.flags.writeable


def test_cached_tables_are_read_only():
    """Every later call on a spec shares its lru_cached tables, so one
    write into them would corrupt every later product."""
    split_spec = GroupRingSpec(3, 2, (4,), 1, 2)  # x^4 - 1 splits mod 3
    tables = parser._tables(SPEC)
    cached = [
        groupring._exponent_array(SPEC),
        groupring._mul_table(SPEC),
        groupring._zeta_powers(4, 9),
        groupring._twist_t_matrix(SPEC, 4),
        *tables.to_tau,
        *tables.from_tau,
        tables.order,
        tables.unit,
        tables.scaled,
        tables.degree,
        *ideals._split(split_spec).crt,
    ]
    assert len(ideals._split(split_spec).crt) == 1
    for a in cached:
        first = (0,) * a.ndim
        with pytest.raises(ValueError):
            a[first] = a[first]
    with pytest.raises(ValueError):
        groupring._mul_table(SPEC)[3, 3] = 0
    assert mul(delta(SPEC, 1), delta(SPEC, 1)) == make_element(SPEC, {(2, 0): 1})
    with pytest.raises(TypeError):
        tables.names["tau1"] = tables.names["t1"]
    assert parser.element_to_text(parser.parse_element("tau1 + t1", SPEC)) == "t1 + tau1"


def test_int64_and_object_arrays_compare_by_entries():
    c = np.arange(SPEC.size) % 9
    assert RingElement(SPEC, c) == RingElement(SPEC, c.astype(object))
    assert RingElement(SPEC, c) != RingElement(SPEC, (c + 1) % 9)
    z = np.arange(6).reshape(2, 3)
    assert CyclotomicElement(9, 3, z) == CyclotomicElement(9, 3, z.astype(object))
    assert CyclotomicElement(9, 3, z) != CyclotomicElement(9, 6, z)
    h = quotient_hom(SPEC, kill_delta=[1])
    assert h == RingHom(h.source, h.target, tuple(
        None if m is None else m.astype(object) for m in h.mats))
    assert h != quotient_hom(SPEC, kill_t=[1])
    x = tvar(SPEC, 1)
    assert RingMatrix(SPEC, np.stack([[x.coeffs]])) == matrix_from_rows(SPEC, [[x]])
    wide = 3**70
    assert CoeffMatrix(3, 70, 2, ((wide - 1, 1),)).rows.dtype == object
    assert CoeffMatrix(3, 2, 2, ((8, 10),)) == CoeffMatrix(3, 2, 2, np.array([[-1, 1]]))


def test_values_of_different_types_are_unequal():
    x = tvar(SPEC, 1)
    assert x != x.coeffs.tolist()
    assert x != matrix_from_rows(SPEC, [[x]])
    assert CoeffMatrix(3, 2, 2, ((1, 2),)) != CoeffMatrix(3, 2, 2, ((1, 2), (0, 3)))
