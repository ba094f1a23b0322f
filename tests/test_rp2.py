"""Projective primitives: pairings, genericity tests, flag validation."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import projkit as pk
from conftest import assert_refuses, random_flag, random_generic_triple, standard_triangle_flags


def line(u, w):
    return pk.ProjLine(u, w)


def point(*coords):
    return pk.ProjPoint(list(coords))


class TestPairing:
    def test_identity_determinant(self):
        assert pk.pairing13(point(1, 0, 0), line([0, 1, 0], [0, 0, 1])) == 1.0

    def test_incident_point_vanishes(self):
        assert pk.pairing13(point(0, 1, 0), line([0, 1, 0], [0, 0, 1])) == 0.0

    def test_linear_in_point(self):
        assert pk.pairing13(point(2, 0, 0), line([0, 1, 0], [0, 0, 1])) == 2.0

    def test_triple_det_values(self):
        assert pk.triple_det(point(1, 0, 0), point(0, 1, 0), point(0, 0, 1)) == 1.0
        p = point(1, 2, 3)
        assert pk.triple_det(p, p, point(0, 0, 1)) == 0.0
        assert pk.triple_det(point(1, 0, 0), point(0, 2, 0), point(0, 0, 3)) == 6.0

    def test_multilinearity_under_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (rng.normal(size=3) for _ in range(3))
            s = rng.uniform(-4.0, 4.0)
            while abs(s) < 0.1:
                s = rng.uniform(-4.0, 4.0)
            base = pk.triple_det(point(*a), point(*b), point(*c))
            scaled = pk.triple_det(point(*(s * a)), point(*b), point(*c))
            assert scaled == pytest.approx(s * base, rel=1e-12, abs=1e-12)
            pline = line(b, c)
            assert pk.pairing13(point(*(s * a)), pline) == pytest.approx(
                s * pk.pairing13(point(*a), pline), rel=1e-12, abs=1e-12
            )


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(st.just(0.0) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6),
                 min_size=9, max_size=9),
        st.lists(st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), min_size=3, max_size=3),
    )
    def test_pairing_is_determinant(self, entries, scales):
        """pairing13(p, line(u, w)) against LAPACK's det of the columns (p, u, w),
        and its multilinearity, both relative to the Hadamard bound |p||u||w|
        (entries of magnitude 0 or 1e-6 .. 1e3, so that bound does not underflow)."""
        p, u, w = np.array(entries).reshape(3, 3)
        size = np.linalg.norm(p) * np.linalg.norm(u) * np.linalg.norm(w)
        assume(p.any() and np.linalg.norm(np.cross(u, w)) > 1e-9 * size)
        value = pk.pairing13(point(*p), line(u, w))
        assert abs(value - np.linalg.det(np.column_stack([p, u, w]))) <= 1e-12 * size
        cp, cu, cw = scales
        scaled = pk.pairing13(point(*(cp * p)), line(cu * u, cw * w))
        assert abs(scaled - cp * cu * cw * value) <= 1e-12 * abs(cp * cu * cw) * size


class TestConstruction:
    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            point(0, 0, 0)

    def test_dependent_span_rejected(self):
        with pytest.raises(ValueError):
            line([1, 2, 3], [2, 4, 6])

    def test_line_beyond_the_square_root_of_the_float_range(self):
        """|u|^2 overflowed for coordinates past ~1.3e154, so the independence test
        compared inf with inf and refused the line, with a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l = line([1e160, 0, 0], [0, 1, 0])
        assert l.normal.tolist() == [0.0, 0.0, 1e160]

    @pytest.mark.parametrize("size", [1e-200, 1e160])
    def test_line_whose_cross_product_leaves_the_float_range(self, size):
        """u x w underflows to 0 (1e-200) or overflows (1e160), and both lines were
        refused: the pair is scaled by powers of two first, so the normal is a
        positive multiple of u x w, a point pairs to 0 exactly when it lies on the
        line, and flag incidence is judged against the scaled pair."""
        l = line([size, 0, 0], [0, size, 0])
        assert l.normal[:2].tolist() == [0.0, 0.0] and l.normal[2] > 0.0
        assert l.u.tolist() == [size, 0.0, 0.0] and l.w.tolist() == [0.0, size, 0.0]
        for on in (point(1, -1, 0), point(size, 3 * size, 0)):
            assert pk.pairing13(on, l) == 0.0
        for off in (point(0, 0, 1), point(size, 0, size)):
            assert pk.pairing13(off, l) > 0.0
        pk.Flag(point(size, size, 0), l)
        with pytest.raises(ValueError, match="flag point does not lie on its line"):
            pk.Flag(point(size, 0, size), l)

    def test_normal_is_the_cross_product_in_range(self):
        """Where |u||w| lies in the float range the normal is numpy's u x w, bit for
        bit, from magnitudes 1e-130 to 1e130 per vector."""
        rng = np.random.default_rng(8)
        for _ in range(2000):
            u, w = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-130, 130, size=(2, 1))
            assert line(u, w).normal.tobytes() == np.cross(u, w).tobytes()

    @pytest.mark.parametrize("normal, on", [
        ([1e-200, 1e-200, 0], [1, -1, 0]),
        ([1e-170, 2e-170, 1e-170], [1, 0, -1]),
        ([1e160, 1e160, 0], [1, -1, 0]),
        ([1e200, 1, 0], [1, -1e200, 0]),
    ])
    def test_from_normal_far_from_unit_size(self, normal, on):
        """The second spanning vector n x (n x e_k) has the size |n|^2, so these lines
        were refused as dependent (1e-200, 1e-170) or non-finite (1e160, 1e200).  n is
        first scaled by a power of two: the line's normal is a positive multiple of n."""
        l = pk.ProjLine.from_normal(normal)
        assert pk.pairing13(point(*on), l) == 0.0
        assert float(np.dot(l.normal, normal)) > 0.0

    def test_from_normal_in_range_keeps_its_spanning_vectors(self):
        """A normal whose largest |component| lies in [2^-500, 2^500] is used as given:
        the spanning vectors are n x e_k and n x (n x e_k), bit for bit."""
        rng = np.random.default_rng(10)
        for _ in range(500):
            n = rng.normal(size=3) * 10.0 ** rng.uniform(-150, 150)
            u = np.cross(n, np.eye(3)[np.argmin(np.abs(n))])
            l = pk.ProjLine.from_normal(n)
            assert (l.u.tobytes(), l.w.tobytes()) == (u.tobytes(), np.cross(n, u).tobytes())

    def test_independence_of_given_pairs_and_of_images(self):
        """A given pair is dependent when |u x w| <= 1e-12 |u||w|.  An image under
        transform is refused only when u x w cancels to within 1e-12 of its largest
        term |u_i w_j| + |u_j w_i|, as it does under a singular map: a diagonal map
        that brings the spanning vectors to within 1e-14 of parallel keeps a line."""
        rng = np.random.default_rng(9)
        for _ in range(2000):
            u, r = rng.normal(size=(2, 3))
            w = u + 10.0 ** rng.uniform(-14, -9) * r
            ratio = np.linalg.norm(np.cross(u, w)) / (np.linalg.norm(u) * np.linalg.norm(w))
            if ratio > 2e-12:
                line(u, w)
            elif ratio < 0.5e-12:
                with pytest.raises(ValueError, match="linearly independent"):
                    line(u, w)
        flag = pk.Flag(point(0.0, 1.0, 2.0), line([0.0, 1.0, 2.0], [1.0, 2.0, -1.0]))
        image = flag.transform(np.diag([1e-5, 1e10, 1e-5]))
        u, w = image.line.u, image.line.w
        assert np.linalg.norm(np.cross(u, w)) < 1e-14 * np.linalg.norm(u) * np.linalg.norm(w)
        assert image.line.normal / 1e5 == pytest.approx([-5.0, 2e-15, -1.0], rel=1e-15)
        with pytest.raises(ValueError, match="linearly independent"):
            line(u, w)
        with pytest.raises(ValueError, match="linearly independent"):
            flag.transform(np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))

    def test_flag_requires_incidence(self):
        with pytest.raises(ValueError):
            pk.Flag(point(1, 0, 0), line([0, 1, 0], [0, 0, 1]))

    def test_flag_from_raw_coordinates(self):
        """Flag(p, (u, w)) with plain lists wraps them itself, bit for bit as the
        wrapped form, and checks incidence the same way."""
        raw = pk.Flag([1, 2, 1], ([1, 2, 1], [0, 1, 0]))
        wrapped = pk.Flag(point(1, 2, 1), line([1, 2, 1], [0, 1, 0]))
        for a, b in ((raw.point.v, wrapped.point.v), (raw.line.u, wrapped.line.u),
                     (raw.line.w, wrapped.line.w), (raw.line.normal, wrapped.line.normal)):
            assert a.tobytes() == b.tobytes()
        assert_refuses(lambda: pk.Flag([0, 0, 1], ([1, 0, 0], [0, 1, 0])), ValueError,
                       "flag point does not lie on its line")

    def test_incidence_residual_is_own_pairing(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            flag = random_flag(rng)
            residual = pk.pairing13(flag.point, flag.line)
            bound = 1e-9 * (
                np.linalg.norm(flag.point.v)
                * np.linalg.norm(flag.line.u)
                * np.linalg.norm(flag.line.w)
            )
            assert abs(residual) <= bound

    def test_json_round_trip(self):
        flag = standard_triangle_flags(0.25)[0]
        again = pk.Flag.from_json(flag.to_json())
        assert np.array_equal(again.point.v, flag.point.v)
        assert np.array_equal(again.line.u, flag.line.u)


class TestGenericity:
    def test_inscribed_triangle_is_generic(self):
        assert pk.is_generic_triple(*standard_triangle_flags(0.25), tol=1e-9)

    def test_repeated_flag_not_generic(self):
        e, f, g = standard_triangle_flags(0.25)
        assert not pk.is_generic_triple(e, e, g, tol=1e-9)

    def test_point_on_other_line_not_generic(self):
        e, f, g = standard_triangle_flags(0.25)
        # a flag whose point lies on e's line {w1 = 0}
        bad = pk.Flag(point(0, 0, 1), line([0, 0, 1], [1, 0, 1]))
        assert not pk.is_generic_triple(e, f, bad, tol=1e-9)

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            flags = random_generic_triple(rng)
            results = {
                pk.is_generic_triple(*perm, tol=1e-9)
                for perm in itertools.permutations(flags)
            }
            assert len(results) == 1

    def test_bulging_configuration_is_generic(self):
        flags = pk.bulging_configuration(1.0, 1.0)
        assert pk.is_generic_quadruple(*flags, tol=1e-9)

    def test_repeated_quadruple_flag_not_generic(self):
        e, f, g, _ = pk.bulging_configuration(1.0, 1.0)
        assert not pk.is_generic_quadruple(e, f, g, g, tol=1e-9)

    def test_collinear_points_not_generic(self):
        e, f, g, _ = pk.bulging_configuration(1.0, 1.0)
        # point on the line joining e and f (the second axis is zero there)
        l = pk.Flag(point(1.0, 0.0, 2.0), line([1, 0, 2], [0, 1, 0]))
        assert not pk.is_generic_quadruple(e, f, g, l, tol=1e-9)

    def test_tolerance_must_be_positive(self):
        flags = standard_triangle_flags(0.25)
        with pytest.raises(ValueError):
            pk.is_generic_triple(*flags, tol=0.0)
        quadruple = pk.bulging_configuration(1.0, 1.0)
        for tol in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                pk.is_generic_triple(*flags, tol=tol)
            with pytest.raises(ValueError):
                pk.is_generic_quadruple(*quadruple, tol=tol)


def _unit_reference(flags):
    """|pairing| of every point with every other flag's line and |det| of every
    point triple, on unit representatives, from LAPACK determinants of
    norm-scaled columns: each point over its norm (``math.hypot``, which
    neither overflows nor underflows), each line by an orthonormal basis of
    its span (a unit bivector)."""
    points = [f.point.v / math.hypot(*f.point.v) for f in flags]
    bases = [np.linalg.qr(np.column_stack([f.line.u, f.line.w]))[0] for f in flags]
    n = len(flags)
    pairings = [abs(np.linalg.det(np.column_stack([points[i], bases[j]])))
                for i, j in itertools.permutations(range(n), 2)]
    triples = [abs(np.linalg.det(np.column_stack([points[k] for k in c])))
               for c in itertools.combinations(range(n), 3)]
    return pairings + triples


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([3, 4]),
    st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]),
    st.lists(st.floats(-1.0, 1.0), min_size=24, max_size=24),
    st.integers(0, 3), st.integers(1, 3), st.integers(0, 1), st.floats(-3.0, 3.0),
    st.floats(-3.0, 0.0),
    st.lists(st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3), min_size=12, max_size=12),
)
def test_genericity_rule(n, tol, coords, i, shift, kind, log_ratio, log_angle, scales):
    """is_generic_* against the unit-representative reference, on flags with one
    pairing (kind 0) or point triple (kind 1) pushed to tol * 10^log_ratio and
    every reference value at least a factor 2 away from tol; the decision is
    unchanged under rescaling every representative by +-[1e-3, 1e3], and a
    generic tuple's ratios raise no NonGenericFlags.  Each line is spanned by
    its point and a vector about 10^log_angle away from it, so a rule that
    took |u||w| for the bivector norm |u x w| would decide differently."""
    p = np.array(coords[: 3 * n]).reshape(n, 3)
    q = p + 10.0**log_angle * np.array(coords[12: 12 + 3 * n]).reshape(n, 3)
    i, j, k = i % n, (i + shift) % n, (i + shift + 1) % n
    try:
        # move point i so that its unit pairing with line j, or its unit triple
        # with points j and k, is about r
        r = tol * 10.0**log_ratio
        normal = np.cross(p[j], q[j]) if kind == 0 else np.cross(p[j], p[k])
        size = np.linalg.norm(normal)
        assume(size > 1e-100)
        normal /= size
        flat = p[i] - (p[i] @ normal) * normal
        p[i] = flat + r * np.linalg.norm(flat) / math.sqrt(1.0 - r * r) * normal
        flags = [pk.Flag(point(*p[m]), line(p[m], q[m])) for m in range(n)]
    except (ValueError, FloatingPointError):
        assume(False)
    ref = _unit_reference(flags)
    assume(all(v >= 2.0 * tol or v <= 0.5 * tol for v in ref))
    generic = all(v > tol for v in ref)
    event(f"generic {generic}")
    is_generic = pk.is_generic_triple if n == 3 else pk.is_generic_quadruple
    assert is_generic(*flags, tol=tol) == generic
    rescaled = [f.rescaled(*scales[3 * m: 3 * m + 3]) for m, f in enumerate(flags)]
    assert is_generic(*rescaled, tol=tol) == generic
    if generic:
        ratio = pk.triple_ratio if n == 3 else pk.double_ratios
        ratio(*flags, tol=tol)
        ratio(*rescaled, tol=tol)


@pytest.mark.parametrize("make, error, message", [
    (lambda: pk.ProjPoint([math.nan, 0.0, 1.0]), ValueError,
     "projective point has non-finite coordinates"),
    (lambda: pk.ProjLine([math.inf, 0.0, 0.0], [0.0, 1.0, 0.0]), ValueError,
     "line spanning vector has non-finite coordinates"),
    (lambda: pk.ProjLine.from_normal([0.0, 0.0, 0.0]), ValueError,
     "line normal cannot be the zero vector"),
], ids=["nan-point", "infinite-line", "zero-normal"])
def test_refusals(make, error, message):
    """Refusals that no other test reaches raise their own error and message."""
    assert_refuses(make, error, message)


# ---------------------------------------------------------------------------
# the input contract of the three constructors: refusals keep their class and
# message, and everything numpy reads as three finite floats is accepted

CONSTRUCTORS = {
    "point": (pk.ProjPoint, "projective point"),
    "line-u": (lambda x: pk.ProjLine(x, [0.0, 1.0, 0.0]), "line spanning vector"),
    "line-w": (lambda x: pk.ProjLine([1.0, 0.0, 0.0], x), "line spanning vector"),
    "normal": (pk.ProjLine.from_normal, "line normal"),
}
ZERO_MESSAGES = {
    "point": "projective point cannot be the zero vector",
    "line-u": "line spanning vectors must be linearly independent",
    "line-w": "line spanning vectors must be linearly independent",
    "normal": "line normal cannot be the zero vector",
}
BAD_INPUTS = [
    ([1.0, 2.0], "needs exactly 3 coordinates, got shape (2,)"),
    ((1, 2), "needs exactly 3 coordinates, got shape (2,)"),
    ([[1.0], [2.0], [3.0]], "needs exactly 3 coordinates, got shape (3, 1)"),
    (np.ones((3, 1)), "needs exactly 3 coordinates, got shape (3, 1)"),
    ([math.nan, 0.0, 1.0], "has non-finite coordinates: [nan  0.  1.]"),
    ((math.nan, 0, 1), "has non-finite coordinates: [nan  0.  1.]"),
    ([0.0, math.inf, 1.0], "has non-finite coordinates: [ 0. inf  1.]"),
    ((0.0, -math.inf, 1), "has non-finite coordinates: [  0. -inf   1.]"),
    (np.array([1.0, 2.0, math.nan]), "has non-finite coordinates: [ 1.  2. nan]"),
]
ZERO_INPUTS = [[0, 0, 0], (0.0, -0.0, 0.0), np.zeros(3)]


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_input_contract(name):
    """Shapes (2,) and (3, 1), NaN, inf, the zero vector and an int past the float
    range are refused with their class and message, through lists, tuples and
    arrays alike; strings of numbers, bools and float32 arrays are read as numpy
    reads them."""
    make, what = CONSTRUCTORS[name]
    for coords, message in BAD_INPUTS:
        with pytest.raises(ValueError) as exc:
            make(coords)
        assert type(exc.value) is ValueError and str(exc.value) == f"{what} {message}"
    for coords in ZERO_INPUTS:
        with pytest.raises(ValueError) as exc:
            make(coords)
        assert type(exc.value) is ValueError and str(exc.value) == ZERO_MESSAGES[name]
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        make([10**400, 0, 1])
    for coords in (["1", "2", "3"], [True, False, True], (False, 2, True),
                   np.array([1 / 3, 2 / 3, 1.0], dtype=np.float32)):
        expected = np.asarray(coords, dtype=float)
        made = make(coords)
        if name == "point":
            assert made.v.tolist() == expected.tolist()
        elif name == "normal":
            assert np.linalg.norm(np.cross(made.normal, expected)) <= 1e-15 * np.linalg.norm(
                made.normal) * np.linalg.norm(expected)
        else:
            assert (made.u if name == "line-u" else made.w).tolist() == expected.tolist()


def _exact(x):
    """Float array x as exact integers, x = m * 2^e elementwise: m an object array of
    Python ints (|m| < 2^53), e an int64 array."""
    m, e = np.frexp(np.asarray(x, dtype=float))
    return np.ldexp(m, 53).astype(np.int64).astype(object), e - 53


def _error(values, *factors):
    """|value - the exact sum| over the exact sum of |terms|, for each column of
    ``values`` (shape (n, k)), where each factor has shape (n, t) and term i of
    row r is the product of the factors' entries (r, i).  Rational arithmetic on
    Python ints, rounded once at the end."""
    (m, e), *rest = (_exact(f) for f in factors)
    for mf, ef in rest:
        m, e = m * mf, e + ef
    mv, ev = _exact(values)
    low = np.minimum(e.min(axis=1), ev.min(axis=1))[:, None]
    terms = m << (e - low).astype(object)
    err = abs((mv << (ev - low).astype(object)) - terms.sum(axis=1)[:, None])
    return (err / abs(terms).sum(axis=1)[:, None]).astype(float)


def _fraction_error(value, *factors):
    """The same as :func:`_error` for one value, by ``fractions.Fraction``."""
    terms = [math.prod(map(Fraction, t)) for t in zip(*factors)]
    return float(abs(Fraction(value) - sum(terms)) / sum(map(abs, terms)))


def _mirrors(*objects) -> bool:
    """Every public array is a read-only float64 array of exactly the stored floats."""
    pairs = []
    for obj in objects:
        if isinstance(obj, pk.ProjPoint):
            pairs.append((obj.v, obj._c))
        else:
            pairs += [(obj.u, obj._u), (obj.w, obj._w), (obj.normal, obj._n)]
    return all(type(a) is np.ndarray and a.dtype == np.float64 and not a.flags.writeable
               and a.tolist() == list(c) and all(type(x) is float for x in c)
               for a, c in pairs)


def test_kernels_against_exact_arithmetic():
    """pairing13, triple_det and transform against exact rational arithmetic on
    100,000 seeded inputs each, every error over the sum of the magnitudes of the
    terms summed.  The largest error is no worse than numpy's dot and matrix
    product (pairing13 and transform before they read stored floats) and than
    the left-to-right sum triple_det took before.  pairing13 and triple_det
    return Python floats, and every public array mirrors its stored floats."""
    n, pool = 100_000, 1000
    rng = np.random.default_rng(2026)

    def vectors(*shape):
        return rng.normal(size=(*shape, 3)) * np.exp2(rng.integers(-20, 21, size=(*shape, 1)))

    pts, spans = vectors(pool), vectors(pool, 2)
    points = [pk.ProjPoint(v) for v in pts.tolist()]
    lines = [pk.ProjLine(*pair) for pair in spans.tolist()]
    flags = [pk.Flag(pt, pk.ProjLine(v, pair[0])) for pt, v, pair in
             zip(points, pts.tolist(), spans.tolist())]
    assert _mirrors(*points, *lines, *(x for f in flags for x in (f.point, f.line)))
    normals = np.array([line.normal for line in lines])
    # pairings: every other point within 1e-12 .. 1 of its line (cancellation)
    j = rng.integers(0, pool, size=n)
    q = vectors(n)
    q[1::2] = (rng.normal(size=(n // 2, 2, 1)) * spans[j[1::2]]).sum(axis=1) \
        + 10.0 ** rng.uniform(-12, 0, size=(n // 2, 1)) * q[1::2]
    pairings = []
    for v, k in zip(q.tolist(), j.tolist()):
        point, normal = pk.ProjPoint(v), lines[k].normal
        pairings.append((pk.pairing13(point, lines[k]), point.v @ normal))
    # point triples and flag images
    ijk = rng.integers(0, pool, size=(n, 3))
    dets = [pk.triple_det(points[a], points[b], points[c]) for a, b, c in ijk.tolist()]
    mats, f = rng.normal(size=(n, 3, 3)), rng.integers(0, pool, size=n)
    images, images_numpy = [], []
    for m, k in zip(mats, f.tolist()):
        image = flags[k].transform(m)
        images.append((image.point.v, image.line.u, image.line.w))
        images_numpy.append([m @ flags[k].point.v, m @ flags[k].line.u, m @ flags[k].line.w])
        if len(images) % 1000 == 0:
            assert _mirrors(image.point, image.line)
    assert all(type(value) is float for value, _ in pairings)
    assert all(type(value) is float for value in dets)

    a, b, c = pts[ijk].transpose(1, 0, 2)
    x, y, z = np.cross(b, c).T  # numpy's cross: each component one product difference
    perms = list(itertools.permutations(range(3)))
    signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
    det_factors = tuple(v[:, [perm[axis] for perm in perms]] for axis, v in enumerate((a, b, c)))
    det_factors = (det_factors[0] * signs,) + det_factors[1:]
    spanning = np.stack([pts[f], pts[f], spans[f, 0]], axis=1)  # p, u = p and w of each flag
    shape = (n, 3, 3, 3)  # input, vector, row, column
    rows = np.broadcast_to(mats[:, None], shape).reshape(-1, 3)
    columns = np.broadcast_to(spanning[:, :, None], shape).reshape(-1, 3)
    errors = {
        "pairing": _error(np.array(pairings), q, normals[j]),
        "det": _error(np.stack([dets, a[:, 0] * x + a[:, 1] * y + a[:, 2] * z], axis=1),
                      *det_factors),
        "transform": _error(np.stack([np.ravel(images), np.ravel(images_numpy)], axis=1),
                            rows, columns),
    }
    for r in range(0, n, n // 100):
        assert errors["pairing"][r, 0] == _fraction_error(pairings[r][0], q[r], normals[j[r]])
        assert errors["det"][r, 0] == _fraction_error(dets[r], *(v[r] for v in det_factors))
    worst = {key: err.max(axis=0) / 2.0**-53 for key, err in errors.items()}
    print({key: f"{new:.3f} ulp (before {old:.3f})" for key, (new, old) in worst.items()})
    assert all(new <= old for new, old in worst.values())
    # the other constructor paths: array, tuple and string input, from_normal,
    # rescaled, raw and JSON flags, a line scaled by powers of two
    flag = pk.Flag([1, 2, 1], ([1, 2, 1], [0, 1, 0]))
    assert _mirrors(
        pk.ProjPoint(np.arange(1.0, 4.0)), pk.ProjPoint((1, 2.5, -3)),
        pk.ProjPoint(["1", "2", "3"]), pk.ProjLine.from_normal([1.0, -2.0, 0.5]),
        flag.point, flag.line, *vars(flag.rescaled(-2.0, 3.0, 0.25)).values(),
        *vars(pk.Flag.from_json(flag.to_json())).values(),
        pk.ProjLine([1e-200, 0.0, 0.0], [0.0, 1e-200, 0.0]))
