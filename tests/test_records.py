"""The immutable slotted records built on `polycore.Record`: equality and
hash over the compared fields only, the repr, no assignment, copy and
pickle, and the rule that ties each record's slots to its constructor."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import lefschetz_lab
from lefschetz_lab.apolar import AkBasis, HilbertVector
from lefschetz_lab.families import FamilyInstance, FamilySpec, Manifest
from lefschetz_lab.hessian import VanishingVerdict
from lefschetz_lab.lefschetz import LinearForm
from lefschetz_lab.linalg import SparseSpan
from lefschetz_lab.polycore import Poly, Record, VariableSet, parse_poly
from lefschetz_lab.support import ZeroBlock


def verdict(**changes):
    fields = dict(vanishes=False, witness_point=(1, 2), prime=7, residue=3, det_value=Fraction(5))
    return VanishingVerdict(**{**fields, **changes})


XY = VariableSet(("x", "y"))
SQUARES = parse_poly("x^2 + y^2", XY)
SPEC = FamilySpec("thmwlp", {"N": 6, "d": 4}, 0, {"g": "u^4"})


# each record: (a record, an equal one, records that differ from it in one compared field each, repr)
RECORDS = {
    "VariableSet": (
        VariableSet(("x", "y", "z")),
        VariableSet(("x", "y", "z")),
        [VariableSet(("x", "y", "w")), VariableSet(("x", "z", "y"))],
        "VariableSet(names=('x', 'y', 'z'))",
    ),
    "AkBasis": (
        AkBasis(1, ((1, 0), (0, 1)), 2, SparseSpan()),
        AkBasis(1, ((1, 0), (0, 1)), 2, SparseSpan()),  # another span: not compared
        [AkBasis(2, ((1, 0), (0, 1)), 2, SparseSpan()), AkBasis(1, ((1, 0),), 2, SparseSpan()),
         AkBasis(1, ((1, 0), (0, 1)), 3, SparseSpan())],
        "AkBasis(k=1, expos=((1, 0), (0, 1)), candidates=2)",
    ),
    "HilbertVector": (
        HilbertVector((1, 2, 1)),
        HilbertVector((1, 2, 1)),
        [HilbertVector((1, 3, 1)), HilbertVector((1, 2, 2, 1))],
        "HilbertVector(dims=(1, 2, 1))",
    ),
    "LinearForm": (
        LinearForm([1, 2]),
        LinearForm((Fraction(1), Fraction(2))),
        [LinearForm([1, 3]), LinearForm([1, 2, 0])],
        "LinearForm(coeffs=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    "VanishingVerdict": (
        verdict(),
        verdict(),
        [verdict(vanishes=True), verdict(witness_point=(1, 3)), verdict(prime=11),
         verdict(residue=4), verdict(error_bound=Fraction(1, 2)), verdict(transcript_hash="ab"),
         verdict(eliminated=True), verdict(det_value=Fraction(6))],
        "VanishingVerdict(vanishes=False, witness_point=(1, 2), prime=7, "
        "residue=3, error_bound=None, transcript_hash=None, certificate=None, eliminated=False, "
        "det_value=Fraction(5, 1))",
    ),
    "FamilySpec": (
        SPEC,
        FamilySpec("thmwlp", {"d": 4, "N": 6}, 0, {"g": "u^4"}),  # the dicts' key order is not compared
        [FamilySpec("wlpodd", {"N": 6, "d": 4}, 0, {"g": "u^4"}), FamilySpec("thmwlp", {"N": 5, "d": 4}, 0, {"g": "u^4"}),
         FamilySpec("thmwlp", {"N": 6, "d": 4}, 1, {"g": "u^4"}), FamilySpec("thmwlp", {"N": 6, "d": 4})],
        "FamilySpec(kind='thmwlp', params={'N': 6, 'd': 4}, seed=0, overrides={'g': 'u^4'})",
    ),
    "FamilyInstance": (
        FamilyInstance(SQUARES, SPEC, Manifest()),
        FamilyInstance(parse_poly("y^2 + x^2", XY), SPEC, Manifest()),
        [FamilyInstance(parse_poly("x^2 - y^2", XY), SPEC, Manifest()),
         FamilyInstance(SQUARES, SPEC._replace(seed=1), Manifest()),
         FamilyInstance(SQUARES, SPEC, Manifest(cone=False))],
        "FamilyInstance(f=Poly('x^2 + y^2'), spec=FamilySpec(kind='thmwlp', params={'N': 6, 'd': 4}, seed=0, "
        "overrides={'g': 'u^4'}), manifest=Manifest(hess_pattern=(), hilbert=None, unimodal=None, cone=None, "
        "dim_a1=None, slp=None, slp_fail_level=None, wlp=None, wlp_fail_level=None, wlp_witness=None, "
        "certified_orders=(), never_injective_level=None))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equality_hash_and_repr(name):
    record, same, others, text = RECORDS[name]
    assert record == same and hash(record) == hash(same)
    for other in others:
        assert record != other
    assert record != text  # another type is never equal
    assert repr(record) == text


# each record and an equal one, and a Poly, whose equality, hash and repr are its own
SAMPLES = {**{name: RECORDS[name][:2] for name in RECORDS}, "Poly": (SQUARES, parse_poly("y^2 + x^2", XY))}

FIRST_FIELD = {"VariableSet": "names", "AkBasis": "k", "HilbertVector": "dims", "LinearForm": "coeffs",
               "VanishingVerdict": "vanishes", "FamilySpec": "kind", "FamilyInstance": "f", "Poly": "vars"}


@pytest.mark.parametrize("name", SAMPLES)
def test_no_assignment(name):
    record = SAMPLES[name][0]
    for field in (FIRST_FIELD[name], "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == SAMPLES[name][1]


def test_verdicts_differing_only_in_certificate():
    cert = ZeroBlock(1, 1, (), ())
    plain = VanishingVerdict(True, transcript_hash="ab")
    assert VanishingVerdict(True, transcript_hash="ab", certificate=cert) != plain


@pytest.mark.parametrize("evidence", [{}, {"prime": 7, "residue": 0}, {"det_value": Fraction(0)},
                                      {"prime": 7, "residue": 0, "det_value": Fraction(0)}])
def test_nonvanishing_verdict_needs_nonzero_evidence(evidence):
    """A witness point proves nothing without a nonzero residue or value."""
    with pytest.raises(ValueError, match="nonzero residue or value"):
        VanishingVerdict(False, witness_point=(1,), **evidence)
    assert not VanishingVerdict(False, witness_point=(1,), det_value=Fraction(-1, 2)).vanishes


def test_linear_form_refuses_floats():
    """As a `Poly` coefficient does: `Fraction` would take a float's binary value."""
    for coeffs in ([0.1, 1], (0.5, 1), [1, 2.0]):
        with pytest.raises(TypeError, match="float coefficient"):
            LinearForm(coeffs)
    # ints and Fractions are kept as Fractions
    form = LinearForm([1, Fraction(-1, 3), 0])
    assert form == LinearForm((Fraction(1), Fraction(-1, 3), Fraction(0)))
    assert all(type(c) is Fraction for c in form.coeffs)
    assert form.to_json() == ["1", "-1/3", "0"]


def test_family_spec_overrides_default_is_not_shared():
    a, b = FamilySpec("ikeda", {}), FamilySpec("ikeda", {})
    assert a.overrides == {} and a.overrides is not b.overrides


def test_replace_and_asdict():
    assert SPEC._asdict() == {"kind": "thmwlp", "params": {"N": 6, "d": 4}, "seed": 0, "overrides": {"g": "u^4"}}
    assert SPEC._replace(seed=1) == FamilySpec("thmwlp", {"N": 6, "d": 4}, 1, {"g": "u^4"})
    inst = FamilyInstance(SQUARES, SPEC, Manifest())
    assert inst._asdict() == {"f": SQUARES, "spec": SPEC, "manifest": Manifest()}
    assert inst._replace(manifest=Manifest(cone=False)) == FamilyInstance(SQUARES, SPEC, Manifest(cone=False))
    assert inst._replace() == inst and inst._replace() is not inst
    # a Poly's terms are a private slot, but it is described by them too
    assert SQUARES._asdict() == {"vars": XY, "terms": {(2, 0): 1, (0, 2): 1}}
    assert SQUARES._replace() == SQUARES and SQUARES._replace() is not SQUARES
    assert SQUARES._replace(terms={(1, 1): 2}) == parse_poly("2*x*y", XY)
    assert SQUARES._replace(vars=VariableSet(("s", "t"))).to_text() == "s^2 + t^2"
    with pytest.raises(ValueError):
        SQUARES._replace(terms={(1,): 1})


@pytest.mark.parametrize("name", SAMPLES)
def test_copy_and_pickle(name):
    """Rebuilt through __init__ to an equal record; a copied instance builds
    its own Analysis."""
    record = SAMPLES[name][0]
    built = record.analysis if name == "FamilyInstance" else None
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) and repr(twin) == repr(record)
        if built is not None:
            assert twin.analysis is not built and twin.analysis.f == SQUARES


def record_classes():
    """Every subclass of `Record` in the package, its modules all imported."""
    for info in pkgutil.iter_modules(lefschetz_lab.__path__):
        if info.name != "__main__":
            importlib.import_module(f"lefschetz_lab.{info.name}")
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.append(cls)
            todo.append(cls)
    return found


RECORD_CLASSES = record_classes()


def test_every_sampled_record_is_found():
    assert set(SAMPLES) <= {cls.__name__ for cls in RECORD_CLASSES}


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_arguments_are_the_constructor_parameters(cls):
    """Copy, pickle and `_replace` pass `_args` to the constructor, so a
    reordered or renamed slot would break them."""
    params = tuple(inspect.signature(cls).parameters)
    if cls is Poly:
        # its terms are a private slot; it rebuilds by its own __reduce__
        assert cls._args == params[:1] and "__reduce__" in vars(cls)
    else:
        assert cls._args == params
    assert set(cls._fields) <= set(cls._args)
    assert cls.__dictoffset__ == 0  # slotted all the way down: no instance __dict__


@pytest.mark.parametrize("record, changes", [
    (HilbertVector((1, 2, 1)), {"dims": (1, 2)}),
    (VariableSet(("x", "y")), {"names": ("x", "x")}),
    (LinearForm([1, 2]), {"coeffs": (Fraction(0), Fraction(0))}),
    (verdict(), {"residue": 0, "det_value": None}),
], ids=["HilbertVector", "VariableSet", "LinearForm", "VanishingVerdict"])
def test_replace_validates(record, changes):
    with pytest.raises(ValueError):
        record._replace(**changes)
