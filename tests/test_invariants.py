"""Triangle invariant and double ratios: worked values and invariance laws."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import projkit as pk
from conftest import (
    random_generic_quadruple,
    random_generic_triple,
    random_projective_map,
    standard_triangle_flags,
)


def rescale(flags, rng):
    def scalar():
        s = rng.uniform(-10.0, 10.0)
        return s if abs(s) > 0.1 else 1.7

    return tuple(f.rescaled(scalar(), scalar(), scalar()) for f in flags)


class TestTripleRatio:
    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 0.01])
    def test_inscribed_triangle_value(self, alpha):
        t = pk.triple_ratio(*standard_triangle_flags(alpha)).value
        assert t == pytest.approx((1.0 - alpha) / alpha, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        flags = standard_triangle_flags(0.25)
        base = pk.triple_ratio(*flags).value
        for _ in range(100):
            assert pk.triple_ratio(*rescale(flags, rng)).value == pytest.approx(
                base, rel=1e-12
            )

    def test_tau111_values(self):
        e, f, g = standard_triangle_flags(0.25)
        assert pk.tau111(e, f, g) == pytest.approx(math.log(3.0), rel=1e-12)
        assert pk.tau111(f, e, g) == pytest.approx(-math.log(3.0), rel=1e-12)
        e2, f2, g2 = standard_triangle_flags(0.5)
        assert pk.tau111(e2, f2, g2) == pytest.approx(0.0, abs=1e-14)

    def test_cyclic_and_inversion_identities(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            e, f, g = random_generic_triple(rng)
            t = pk.triple_ratio(e, f, g).value
            assert pk.triple_ratio(f, g, e).value == pytest.approx(t, rel=1e-9)
            assert t * pk.triple_ratio(f, e, g).value == pytest.approx(1.0, rel=1e-9)

    def test_projective_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            flags = random_generic_triple(rng)
            m = random_projective_map(rng)
            t = pk.triple_ratio(*flags).value
            moved = tuple(f.transform(m) for f in flags)
            assert pk.triple_ratio(*moved).value == pytest.approx(t, rel=1e-9)

    def test_nonpositive_ratio_raises(self):
        # alpha > 1 puts the third vertex outside the edge, so T < 0
        flags = standard_triangle_flags(2.0)
        assert pk.triple_ratio(*flags).value < 0.0
        with pytest.raises(pk.NonPositiveRatio):
            pk.tau111(*flags)

    def test_vanishing_denominator_raises(self):
        e, f, _ = standard_triangle_flags(0.25)
        # point on e's line {w1 = 0} makes the pairing e2^g1 vanish
        bad = pk.Flag(pk.ProjPoint([0, 0, 1]), pk.ProjLine([0, 0, 1], [1, 0, 1]))
        with pytest.raises(pk.NonGenericFlags):
            pk.triple_ratio(e, f, bad)


class TestDoubleRatios:
    def test_mirror_symmetric_configuration_is_one(self):
        d = pk.double_ratios(*pk.bulging_configuration(1.0, 1.0))
        assert d.d1 == pytest.approx(1.0, rel=1e-12)
        assert d.d2 == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(37)
        flags = pk.bulging_configuration(1.0, 1.0)
        base = pk.double_ratios(*flags)
        for _ in range(100):
            d = pk.double_ratios(*rescale(flags, rng))
            assert d.d1 == pytest.approx(base.d1, rel=1e-12)
            assert d.d2 == pytest.approx(base.d2, rel=1e-12)

    def test_projective_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            flags = random_generic_quadruple(rng)
            base = pk.double_ratios(*flags)
            m = random_projective_map(rng)
            moved = tuple(f.transform(m) for f in flags)
            d = pk.double_ratios(*moved)
            assert d.d1 == pytest.approx(base.d1, rel=1e-9)
            assert d.d2 == pytest.approx(base.d2, rel=1e-9)

    @pytest.mark.parametrize("v", [0.1, -0.25, 1.0])
    def test_bulging_shifts_log_ratios(self, v):
        e, f, g, l = pk.bulging_configuration(1.4, 0.7)
        base = pk.double_ratios(e, f, g, l)
        moved = pk.double_ratios(e, f, g, l.transform(pk.bulging_matrix(v)))
        assert math.log(moved.d1) - math.log(base.d1) == pytest.approx(-3.0 * v, abs=1e-12)
        assert math.log(moved.d2) - math.log(base.d2) == pytest.approx(3.0 * v, abs=1e-12)

    def test_shear_values(self):
        e, f, g, l = pk.bulging_configuration(1.0, 1.0)
        assert pk.shear(e, f, g, l, 1) == pytest.approx(0.0, abs=1e-14)
        assert pk.shear(e, f, g, l, 2) == pytest.approx(0.0, abs=1e-14)
        # bulging by v = -1/3 drives D1 to e
        bulged = l.transform(pk.bulging_matrix(-1.0 / 3.0))
        assert pk.shear(e, f, g, bulged, 1) == pytest.approx(1.0, rel=1e-12)
        shifted = pk.shear(e, f, g, l.transform(pk.bulging_matrix(0.1)), 1)
        assert shifted == pytest.approx(-0.3, abs=1e-12)

    def test_shear_index_validation(self):
        flags = pk.bulging_configuration(1.0, 1.0)
        with pytest.raises(ValueError):
            pk.shear(*flags, 3)

    def test_negative_ratio_raises(self):
        e, f, g, _ = pk.bulging_configuration(1.0, 1.0)
        # fourth vertex on the same side as the third makes D1 negative
        p = pk.ProjPoint([1.0, -2.0, 4.0])
        l = pk.Flag(p, pk.ProjLine(p.v, [0.0, 1.0, 0.0]))
        assert pk.double_ratios(e, f, g, l).d1 < 0.0
        with pytest.raises(pk.NonPositiveRatio):
            pk.shear(e, f, g, l, 1)

    def test_vanishing_denominator_raises(self):
        e, f, g, _ = pk.bulging_configuration(1.0, 1.0)
        # fourth point on the e-f line kills the e1^f1^l1 determinant
        l = pk.Flag(pk.ProjPoint([1.0, 0.0, 2.0]), pk.ProjLine([1, 0, 2], [0, 1, 0]))
        with pytest.raises(pk.NonGenericFlags):
            pk.double_ratios(e, f, g, l)


# ---- every invariant against a reference written from the pairings and the README's rule


def _norm(v) -> float:
    return math.hypot(*v.tolist())


def _ref_pairing(p, flag):
    """pairing13 of a point with a flag's line, and |p| |u x w|."""
    return pk.pairing13(p, flag.line), _norm(p.v) * _norm(flag.line.normal)


def _ref_triple(a, b, c):
    """triple_det of three points, and |a| |b| |c|."""
    return pk.triple_det(a, b, c), _norm(a.v) * _norm(b.v) * _norm(c.v)


def _ref_vanishes(value, norms, tol) -> bool:
    """The README's rule, |value| / norms <= tol, multiplied through: norms whose product
    underflows to 0 clear only a value of exactly 0."""
    return abs(value) <= tol * norms


def _ref_denom(value_norms, tol, what):
    if _ref_vanishes(*value_norms, tol):
        raise pk.NonGenericFlags(f"vanishing {what}")
    return value_norms[0]


def _ref_triple_ratio(e, f, g, tol):
    e1, f1, g1 = e.point, f.point, g.point
    return (pk.pairing13(f1, e.line) / _ref_denom(_ref_pairing(f1, g), tol, "pairing f1^g2")
            * pk.pairing13(e1, g.line) / _ref_denom(_ref_pairing(e1, f), tol, "pairing e1^f2")
            * pk.pairing13(g1, f.line) / _ref_denom(_ref_pairing(g1, e), tol, "pairing e2^g1"))


def _ref_double_ratios(e, f, g, l, tol):
    e1, f1, g1, l1 = e.point, f.point, g.point, l.point
    efl = _ref_denom(_ref_triple(e1, f1, l1), tol, "determinant e1^f1^l1")
    efg = _ref_denom(_ref_triple(e1, f1, g1), tol, "determinant e1^f1^g1")
    fg = _ref_denom(_ref_pairing(g1, f), tol, "pairing f2^g1")
    el = _ref_denom(_ref_pairing(l1, e), tol, "pairing e2^l1")
    return (-(efg / efl) * (pk.pairing13(l1, f.line) / fg),
            -(pk.pairing13(g1, e.line) / el) * (efl / efg))


def _ref_log(value, what):
    if not value > 0.0:
        raise pk.NonPositiveRatio(f"{what} is not positive: {value:g}")
    return math.log(value)


def _ref_generic(flags, tol) -> bool:
    pairings = [_ref_pairing(a.point, b) for a, b in itertools.permutations(flags, 2)]
    triples = [_ref_triple(*c) for c in itertools.combinations([f.point for f in flags], 3)]
    return not any(_ref_vanishes(*vn, tol) for vn in pairings + triples)


def _outcome(call) -> str:
    """repr of the result, or the refusal's class and message."""
    try:
        return repr(call())
    except pk.ProjKitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _flags(specs):
    """Flags from (u, w, a, b) specs, each flag the point a u + b w on the line spanned
    by u and w, or None where u, w are dependent or the point is 0."""
    try:
        return [pk.Flag(pk.ProjPoint([a * x + b * y for x, y in zip(u, w)]), pk.ProjLine(u, w))
                for u, w, a, b in specs]
    except ValueError:
        return None


def _boundary_tol(value, norms) -> float:
    """The least float tol at which the rule refuses value: one ulp less clears it."""
    tol = abs(value) / norms
    while not _ref_vanishes(value, norms, tol):
        tol = math.nextafter(tol, 1.0)
    while _ref_vanishes(value, norms, math.nextafter(tol, 0.0)):
        tol = math.nextafter(tol, 0.0)
    return tol


# integer configurations in which one denominator's unit value is in (1e-3, 0.3] and
# every other denominator of its invariant is larger by half again
_DENOMINATORS = {
    "pairing f1^g2": ([[0, 1, 0], [-1, 1, 1], -1, -2], [[0, -2, 0], [1, -2, 2], 1, 0],
                      [[1, 2, -2], [1, -2, -1], 2, -1], [[-2, -1, 1], [0, 2, 0], 2, 0]),
    "pairing e1^f2": ([[-1, 2, 2], [2, 1, 0], 2, 2], [[0, -2, -1], [-1, 2, 1], 2, -1],
                      [[-1, -1, -2], [1, -1, -1], -2, -1], [[-2, 0, -1], [1, -1, 2], -2, 1]),
    "pairing e2^g1": ([[1, 1, -1], [2, 2, 0], 0, 1], [[0, 1, -2], [0, 0, 1], 0, -1],
                      [[1, -2, -2], [2, 1, -1], 0, -2], [[-1, 1, -2], [1, 2, 2], 0, -1]),
    "determinant e1^f1^l1": ([[-2, -1, 2], [0, 0, 1], 1, -1], [[-2, -2, 1], [0, -1, -1], 2, -1],
                             [[1, -2, -1], [1, 0, -1], -2, 1], [[0, -1, 1], [2, -1, 2], 1, 1]),
    "determinant e1^f1^g1": ([[2, 2, -1], [0, -2, 2], -1, 0], [[0, 2, -1], [-1, 0, 1], 1, -1],
                             [[-1, -2, 0], [-2, 2, -2], -2, -2], [[2, 2, 1], [-1, 1, 1], 1, 0]),
    "pairing f2^g1": ([[2, 1, 1], [-1, 2, 1], -1, -2], [[1, 0, -1], [-2, -2, -1], 0, -2],
                      [[-2, 0, 2], [1, 1, 2], -2, -2], [[-1, -1, 1], [-2, 1, 2], -2, 0]),
    "pairing e2^l1": ([[1, 2, -1], [-2, 0, -1], -2, 2], [[0, -2, -1], [-1, 1, -2], -2, 1],
                      [[-2, 0, -1], [1, 1, -1], -2, 1], [[-1, -1, -1], [1, 1, -1], 1, -2]),
}


def _at_boundary(what):
    """The configuration of ``what`` and the tol at its refusal boundary."""
    specs = _DENOMINATORS[what]
    e, f, g, l = _flags(specs)
    value_norms = {
        "pairing f1^g2": _ref_pairing(f.point, g), "pairing e1^f2": _ref_pairing(e.point, f),
        "pairing e2^g1": _ref_pairing(g.point, e), "pairing f2^g1": _ref_pairing(g.point, f),
        "pairing e2^l1": _ref_pairing(l.point, e),
        "determinant e1^f1^l1": _ref_triple(e.point, f.point, l.point),
        "determinant e1^f1^g1": _ref_triple(e.point, f.point, g.point)}[what]
    return specs, _boundary_tol(*value_norms)


_BOUNDARIES = {what: _at_boundary(what) for what in _DENOMINATORS}


@pytest.mark.parametrize("what", sorted(_BOUNDARIES))
def test_boundary_examples_sit_on_their_denominator(what):
    """At its tol each pinned configuration is refused for its own denominator; one ulp
    less, it is not."""
    specs, tol = _BOUNDARIES[what]
    flags = _flags(specs)
    if what in ("pairing f1^g2", "pairing e1^f2", "pairing e2^g1"):
        invariant, flags = pk.triple_ratio, flags[:3]
    else:
        invariant = pk.double_ratios
    with pytest.raises(pk.NonGenericFlags, match=f"^{re.escape('vanishing ' + what)}$"):
        invariant(*flags, tol=tol)
    invariant(*flags, tol=math.nextafter(tol, 0.0))


_coordinate = st.integers(-2, 2) | st.floats(-4.0, 4.0)
_flag_spec = st.tuples(st.lists(_coordinate, min_size=3, max_size=3),
                       st.lists(_coordinate, min_size=3, max_size=3), _coordinate, _coordinate)


def _pin_boundaries(test):
    """An @example at each denominator's refusal boundary, on both sides of it."""
    for specs, tol in _BOUNDARIES.values():
        test = example(specs, tol)(example(specs, math.nextafter(tol, 0.0))(test))
    return test


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.tuples(*[_flag_spec] * 4), st.floats(1e-12, 0.3))
@_pin_boundaries
def test_invariants_match_the_unit_rule_reference(specs, tol):
    """triple_ratio, tau111, double_ratios, shear(1), shear(2) and is_generic_* give what
    a reference written from pairing13, triple_det and the README's rule gives: values by
    repr, refusals by class and message.  Small integer coordinates make exact zeros, so
    every refusal class is drawn."""
    flags = _flags(specs)
    assume(flags is not None)
    e, f, g, l = flags
    cases = [
        (lambda: pk.triple_ratio(e, f, g, tol=tol),
         lambda: pk.TripleRatio(_ref_triple_ratio(e, f, g, tol))),
        (lambda: pk.tau111(e, f, g, tol=tol),
         lambda: _ref_log(_ref_triple_ratio(e, f, g, tol), "triangle invariant")),
        (lambda: pk.double_ratios(e, f, g, l, tol=tol),
         lambda: pk.DoubleRatios(*_ref_double_ratios(e, f, g, l, tol))),
        (lambda: pk.shear(e, f, g, l, 1, tol=tol),
         lambda: _ref_log(_ref_double_ratios(e, f, g, l, tol)[0], "double ratio D1")),
        (lambda: pk.shear(e, f, g, l, 2, tol=tol),
         lambda: _ref_log(_ref_double_ratios(e, f, g, l, tol)[1], "double ratio D2")),
        (lambda: pk.is_generic_triple(e, f, g, tol=tol), lambda: _ref_generic((e, f, g), tol)),
        (lambda: pk.is_generic_quadruple(*flags, tol=tol), lambda: _ref_generic(flags, tol)),
    ]
    for call, reference in cases:
        assert _outcome(call) == _outcome(reference)
    for name, (call, _) in zip(("T", "D"), (cases[0], cases[2])):
        event(f"{name}: {re.match(r'[A-Za-z]+', _outcome(call))[0]}")
