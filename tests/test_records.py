"""The immutable records with hand-written comparisons: equality and hash
over the compared fields only, the repr, and no assignment."""

from fractions import Fraction

import pytest

from lefschetz_lab.apolar import AkBasis, HilbertVector
from lefschetz_lab.hessian import VanishingVerdict
from lefschetz_lab.lefschetz import KeyCertificate, LinearForm
from lefschetz_lab.linalg import SparseSpan
from lefschetz_lab.polycore import VariableSet


def verdict(**changes):
    fields = dict(vanishes=False, mode="probabilistic", witness_point=(1, 2), prime=7, residue=3,
                  known_value=Fraction(5))
    return VanishingVerdict(**{**fields, **changes})


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
               "VanishingVerdict": "vanishes"}


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
