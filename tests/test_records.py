"""The immutable records with hand-written comparisons: equality and hash
over the compared fields only, the repr, and no assignment."""

import copy
import pickle
from fractions import Fraction

import pytest

from lefschetz_lab.apolar import AkBasis, HilbertVector
from lefschetz_lab.families import FamilyInstance, FamilySpec, Manifest
from lefschetz_lab.hessian import VanishingVerdict
from lefschetz_lab.lefschetz import KeyCertificate, LinearForm
from lefschetz_lab.linalg import SparseSpan
from lefschetz_lab.polycore import VariableSet, parse_poly


def verdict(**changes):
    fields = dict(vanishes=False, mode="probabilistic", witness_point=(1, 2), prime=7, residue=3,
                  known_value=Fraction(5))
    return VanishingVerdict(**{**fields, **changes})


XY = VariableSet(("x", "y"))
SQUARES = parse_poly("x^2 + y^2", XY)
SPEC = FamilySpec("thmwlp", {"N": 6, "d": 4}, 0, {"g": "u^4"})


# each record: (a record, an equal one, records that differ from it in one compared field each, repr)
RECORDS = {
    "VariableSet": (
        VariableSet(("x", "y", "z"), 1),
        VariableSet(("x", "y", "z"), 1),
        [VariableSet(("x", "y", "z")), VariableSet(("x", "y", "w"), 1)],
        "VariableSet(names=('x', 'y', 'z'), n_x=1)",
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
        LinearForm.from_coeffs([1, 2]),
        LinearForm((Fraction(1), Fraction(2))),
        [LinearForm.from_coeffs([1, 3]), LinearForm.from_coeffs([1, 2, 0])],
        "LinearForm(coeffs=(Fraction(1, 1), Fraction(2, 1)))",
    ),
    "VanishingVerdict": (
        verdict(),
        verdict(kernel=object()),  # the kernel is not compared
        [verdict(vanishes=True), verdict(mode="exact"), verdict(witness_point=(1, 3)), verdict(prime=11),
         verdict(residue=4), verdict(error_bound=Fraction(1, 2)), verdict(transcript_hash="ab"),
         verdict(eliminated=True), verdict(known_value=Fraction(6))],
        "VanishingVerdict(vanishes=False, mode='probabilistic', witness_point=(1, 2), prime=7, "
        "residue=3, error_bound=None, transcript_hash=None, certificate=None, eliminated=False, "
        "known_value=Fraction(5, 1))",
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
        "key_certificate_orders=(), obstruction_level=None, obstruction_size=None))",
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


FIRST_FIELD = {"VariableSet": "names", "AkBasis": "k", "HilbertVector": "dims", "LinearForm": "coeffs",
               "VanishingVerdict": "vanishes", "FamilySpec": "kind", "FamilyInstance": "f"}


@pytest.mark.parametrize("name", RECORDS)
def test_no_assignment(name):
    record = RECORDS[name][0]
    for field in (FIRST_FIELD[name], "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == RECORDS[name][1]


def test_verdicts_differing_only_in_certificate():
    cert = KeyCertificate(("x",), ("u",), 1, (), 0, ())
    plain = VanishingVerdict(True, "exact", transcript_hash="ab")
    assert VanishingVerdict(True, "exact", transcript_hash="ab", certificate=cert) != plain


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


def test_family_records_copy_and_pickle():
    """Rebuilt through __init__ as the dataclasses were; a copied instance
    builds its own Analysis."""
    for spec in (copy.copy(SPEC), copy.deepcopy(SPEC), pickle.loads(pickle.dumps(SPEC))):
        assert spec == SPEC and spec is not SPEC
    inst = FamilyInstance(SQUARES, SPEC, Manifest())
    built = inst.analysis
    twin = copy.copy(inst)
    assert twin == inst and twin.analysis is not built and twin.analysis.f == SQUARES
