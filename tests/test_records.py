"""The record contract of the public result and parameter types: a copy, a deep copy
and a pickle round trip print the same repr; ``==`` and ``hash`` go by the fields,
except for ProjPoint, ProjLine and Flag, which compare by identity; positional
pattern matching takes the constructor's fields; and no attribute can be assigned
or deleted.
"""

import copy
import pickle

import pytest

import projkit as pk

_HYPERBOLIC = [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]


def _boundary():
    return pk.BoundaryData.hyperbolic(0.2, 6.0)


def _pants(s=2.0):
    b = _boundary()
    return pk.PantsGoldman((b, b, pk.BoundaryData.quasi_hyperbolic(0.25)), s, 1.0)


def _torus(v=0.2):
    return pk.TorusGoldman(_boundary(), _boundary(), 2.0, 1.0, 0.1, v)


# each type: (build an instance, build one that differs in a field, __match_args__);
# a builder makes a new instance from the same inputs on every call
RECORDS = {
    "ProjPoint": (lambda: pk.ProjPoint([1.0, 2.0, 3.0]), None, ("_c", "_size")),
    "ProjLine": (lambda: pk.ProjLine([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), None,
                 ("_u", "_w", "_n", "_size", "_terms")),
    "Flag": (lambda: pk.bulging_configuration()[3], None, ("point", "line")),
    "TripleRatio": (lambda: pk.TripleRatio(1.5), lambda: pk.TripleRatio(2.5), ("value",)),
    "DoubleRatios": (lambda: pk.DoubleRatios(1.0, 2.0), lambda: pk.DoubleRatios(1.0, -2.0),
                     ("d1", "d2")),
    "IsometryClass": (lambda: pk.classify([[2, 1, 0], [0, 2, 0], [0, 0, 0.25]]),
                      lambda: pk.classify(_HYPERBOLIC),
                      ("kind", "eigenvalues", "mu", "nu", "jordan_at_larger")),
    "GoldmanLengths": (lambda: pk.goldman_lengths(pk.classify(_HYPERBOLIC)),
                       lambda: pk.GoldmanLengths(1.0, 2.0, 3.0),
                       ("l1", "l2", "hilbert_length")),
    "Chord": (lambda: pk.chord(pk.ConicOval.unit_circle(), [0.0, 0.0], [0.5, 0.0]),
              lambda: pk.chord(pk.ConicOval.unit_circle(), [0.0, 0.0], [0.0, 0.5]), ("p", "q")),
    "BoundaryData": (_boundary, pk.BoundaryData.parabolic, ("lam", "tau", "kind")),
    "PantsGoldman": (_pants, lambda: _pants(3.0), ("boundaries", "s", "t")),
    "TorusGoldman": (_torus, lambda: _torus(0.3), ("b", "c", "s", "t", "u", "v")),
    "PantsBD": (lambda: pk.pants_goldman_to_bd(_pants()),
                lambda: pk.pants_goldman_to_bd(_pants(3.0)),
                ("sigma1", "sigma2", "tplus", "tminus")),
    "TorusBD": (lambda: pk.torus_goldman_to_bd(_torus()),
                lambda: pk.torus_goldman_to_bd(_torus(0.3)), ("pants", "sigma_c1", "sigma_c2")),
}
BY_IDENTITY = ("ProjPoint", "ProjLine", "Flag")


def _pickled(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("name", sorted(RECORDS))
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, _pickled],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_the_repr(name, duplicate):
    record = RECORDS[name][0]()
    twin = duplicate(record)
    assert type(twin) is type(record) and repr(twin) == repr(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash(name):
    make, make_other, _ = RECORDS[name]
    a, b = make(), make()
    assert a == a and not a != a
    assert a != "a string"
    if name in BY_IDENTITY:
        assert a != b and copy.copy(a) != a
        assert hash(a) == object.__hash__(a)
    else:
        assert a == b and hash(a) == hash(b) and not a != b
        assert a != make_other()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_match_args(name):
    assert getattr(pk, name).__match_args__ == RECORDS[name][2]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_frozen(name):
    record = RECORDS[name][0]()
    before = repr(record)
    for field in RECORDS[name][2]:
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == before


def test_boundary_mu_is_a_field_but_not_an_argument():
    """mu is in repr, == and hash, and BoundaryData(..., mu=...) is a TypeError."""
    b = _boundary()
    assert repr(b) == f"BoundaryData(lam=0.2, tau=6.0, kind='hyperbolic', mu={b.mu!r})"
    with pytest.raises(TypeError):
        pk.BoundaryData(0.2, 6.0, "hyperbolic", mu=b.mu)


def test_flag_keeps_its_instance_dict():
    flag = RECORDS["Flag"][0]()
    assert vars(flag) == {"point": flag.point, "line": flag.line}
    assert vars(copy.copy(flag)) == vars(flag)


def test_torus_parabolic_recovery_is_a_named_tuple():
    rec = pk.torus_parabolic_recover((-3.0, 0.5, -0.2), 0.3)
    assert isinstance(rec, tuple) and type(rec)._fields == ("s", "lam2", "mu2", "t", "bd")
    s, lam2, mu2, t, bd = rec
    assert rec == (s, lam2, mu2, t, bd) and rec[4] is rec.bd and len(rec) == 5
    assert repr(rec) == (f"TorusParabolicRecovery(s={s!r}, lam2={lam2!r}, mu2={mu2!r}, "
                         f"t={t!r}, bd={bd!r})")
    assert rec._replace(t=1.0).t == 1.0 and _pickled(rec) == rec
