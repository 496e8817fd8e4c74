"""The value records: field-wise equality and hashing, immutability, pickling,
constructor checks and the ``Name(field=value, ...)`` repr.  Every record
class in the package must have an example here."""

import copy
import importlib
import pickle
from pathlib import Path

import pytest

import korth
from korth.codes import PauliOp, StabilizerCode, StandardFormCode
from korth.degenerate import DegeneracyClass, DegeneracyPartition, ReducedView
from korth.distance import DistanceReport
from korth.errors import DimensionError, RangeError
from korth.families import subdual_css, subdual_parts
from korth.gates import ControlledPhaseReport, GateDescriptor, PhaseActionResult, PhaseSolutionSet
from korth.gf2 import BitMat, BitVec
from korth.lemmas import ThreeColumnCheck
from korth.ortho import OrthogonalityReport, OrthogonalityWitness
from korth.phases import DyadicPhase, DyadicPhaseVector
from korth.record import Record
from korth.search import BoxResult, SearchReport, SearchSpace, SearchWitness

MODULES = sorted(p.stem for p in Path(korth.__file__).parent.glob("*.py") if p.stem != "__init__")

_V = BitVec(3, 0b101)
_M = BitMat(3, (_V, BitVec(3, 0b010)))
_WITNESS = OrthogonalityWitness(2, (0, 1), BitVec(3, 0b111))
_DEG = DegeneracyClass((0, 2), 0, False)
_PARTITION = DegeneracyPartition(3, (_DEG, DegeneracyClass((1,), 1, True)))
_PHASES = DyadicPhaseVector(3, (1, 2, 1))
_SEARCH_WITNESS = SearchWitness(3, 7, tuple(range(1, 8)))
_BOX = BoxResult(3, 7, 1, 1, 1, (_SEARCH_WITNESS,))

# One instance of every record class, by class name.
EXAMPLES = {
    "BitVec": lambda: _V,
    "BitMat": lambda: _M,
    "DyadicPhase": lambda: DyadicPhase(3, 3),
    "DyadicPhaseVector": lambda: _PHASES,
    "OrthogonalityWitness": lambda: _WITNESS,
    "OrthogonalityReport": lambda: OrthogonalityReport(2, False, _WITNESS),
    "PauliOp": lambda: PauliOp(3, 5, 2, 1),
    "StabilizerCode": lambda: StabilizerCode(
        3, (PauliOp.from_label("+ZZI"), PauliOp.from_label("+IZZ")),
        PauliOp.from_label("+XXX"), PauliOp.from_label("+ZII")),
    "StandardFormCode": lambda: subdual_css(3),
    "DegeneracyClass": lambda: _DEG,
    "DegeneracyPartition": lambda: _PARTITION,
    "ReducedView": lambda: ReducedView(_PARTITION, (0, 1), _M),
    "PhaseActionResult": lambda: PhaseActionResult(False, None, _V, 4),
    "GateDescriptor": lambda: GateDescriptor(0, _PHASES, DyadicPhase(1, 3)),
    "PhaseSolutionSet": lambda: PhaseSolutionSet(3, 3, (_PHASES,), (8,), (DyadicPhase(1, 3),)),
    "ControlledPhaseReport": lambda: ControlledPhaseReport(
        True, 1, 3, _V, True, True, 1, None, (0, 1), None, None),
    "DistanceReport": lambda: DistanceReport(3, 3, _V, None, "coset", "weight", True, False),
    "ThreeColumnCheck": lambda: ThreeColumnCheck(True, (0, 1, 2)),
    "SubdualParts": lambda: subdual_parts(3),
    "SearchSpace": lambda: SearchSpace(3, (4, 5), 14, 1.5),
    "SearchWitness": lambda: _SEARCH_WITNESS,
    "BoxResult": lambda: _BOX,
    "SearchReport": lambda: SearchReport(2, "orbit", (_BOX,), 0.25, ("capped",), ("linear",)),
}


def fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj)._fields)


def test_every_record_class_has_an_example():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"korth.{name}")
        found |= {cls.__name__ for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record}
    assert found == set(EXAMPLES)


@pytest.fixture(params=sorted(EXAMPLES))
def record(request):
    obj = EXAMPLES[request.param]()
    assert type(obj).__name__ == request.param
    return obj


def test_equal_fields_give_equal_objects(record):
    cls, values = type(record), fields(record)
    again = cls(*values)
    assert again is not record and again == record and not again != record
    assert hash(again) == hash(record)
    assert cls(**dict(zip(cls._fields, values))) == record


def test_other_class_with_the_same_fields_is_not_equal(record):
    cls, values = type(record), fields(record)
    twin = type(cls.__name__, (Record,), {"__slots__": cls._fields})(*values)
    assert fields(twin) == values
    assert record != twin and twin != record
    assert record.__eq__(twin) is NotImplemented


def test_fields_are_read_only(record):
    for name in (*type(record).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_round_trip(record, clone):
    again = clone(record)
    assert type(again) is type(record)
    assert again == record and repr(again) == repr(record)
    assert all(getattr(again, name) == getattr(record, name) for name in type(record).__slots__)


def test_constructor_rejects_missing_unknown_and_repeated_arguments(record):
    cls, values = type(record), fields(record)
    names = cls._fields
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, None)


# Taken from the dataclass-generated reprs these classes used to have.
@pytest.mark.parametrize("obj, text", [
    (PauliOp(3, 5, 2, 1), "PauliOp(n=3, x=5, z=2, i_exp=1)"),
    (DyadicPhaseVector(3, (1, 2, 9)), "DyadicPhaseVector(k=3, p=(1, 2, 1))"),
    (DyadicPhase(6, 3), "DyadicPhase(numerator=3, k=2)"),
    (_M, "BitMat(ncols=3, rows=(BitVec('101'), BitVec('010')))"),
    (OrthogonalityReport(2, False, _WITNESS),
     "OrthogonalityReport(level=2, holds=False, witness=OrthogonalityWitness(t=2, rows=(0, 1), "
     "restriction=BitVec('111')))"),
    (OrthogonalityReport(3, True), "OrthogonalityReport(level=3, holds=True, witness=None)"),
    (BoxResult(4, 5), "BoxResult(m=4, n=5, subsets=0, candidates=None, hits=0, witnesses=(), "
                      "complete=True, skipped=None, mode='fast')"),
    (SearchSpace(2, (3,), 7), "SearchSpace(k=2, m_range=(3,), n_max=7, budget_seconds=None)"),
])
def test_repr(obj, text):
    assert repr(obj) == text


class TestValidatingConstructors:
    def test_bitvec_length(self):
        with pytest.raises(RangeError):
            BitVec(-1, 0)

    def test_bitvec_masks_its_bits(self):
        assert BitVec(3, 0b11101).bits == 0b101

    def test_bitmat_row_width(self):
        with pytest.raises(DimensionError):
            BitMat(3, (BitVec(3, 1), BitVec(4, 1)))

    def test_pauli_masks_and_reduces(self):
        assert PauliOp(2, 0b111, 0b100, 7) == PauliOp(2, 0b11, 0, 3)

    def test_dyadic_phase_exponent(self):
        with pytest.raises(RangeError):
            DyadicPhase(1, 0)
        assert DyadicPhase(12, 3) == DyadicPhase(1, 1)

    def test_phase_vector_planes_follow_p(self):
        v = DyadicPhaseVector(3, (1, 2, -1))
        assert v.p == (1, 2, 7) and v.planes == (0b101, 0b110, 0b100)
        assert DyadicPhaseVector(3, (1, 2, 7)) == v

    def test_phase_vector_from_planes_is_the_checked_vector(self):
        checked = DyadicPhaseVector(9, (1, 300, 0, 511))
        v = DyadicPhaseVector.from_planes(9, 4, checked.planes)
        assert v == checked and hash(v) == hash(checked) and repr(v) == repr(checked)
        assert pickle.dumps(v) == pickle.dumps(checked)
        assert pickle.loads(pickle.dumps(v)) == checked

    def test_search_space(self):
        with pytest.raises(RangeError):
            SearchSpace(0, (4,), 5)
        with pytest.raises(RangeError):
            SearchSpace(2, (3,), 7, budget_seconds=float("nan"))

    def test_standard_form_defaults(self):
        sf = subdual_css(3)
        bare = StandardFormCode(sf.a_x, sf.b, sf.a_z, sf.r, sf.s)
        assert bare.x_phases == (0,) * sf.m
        zero = BitVec.zeros(sf.n)
        assert bare.local_x_mask == bare.local_s_mask == bare.local_z_mask == zero
        assert bare == sf
