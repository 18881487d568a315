"""The contract of the 16 public records, which ``statevec._record`` builds as
frozen dataclasses without generated code: fields, ``replace``, ``astuple``,
``__match_args__``, repr, equality and hashing, frozenness, the TypeError of a
bad call, ``__post_init__``, ``inspect.signature`` and ``__dataclass_params__``, each as
``@dataclass(frozen=True)`` (``eq=False`` for four of them) gives it."""

import dataclasses
import inspect

import numpy as np
import pytest

from densecode import (
    AmeReport,
    AuditReport,
    Bipartition,
    CertificateReport,
    CodeBasis,
    DensityOperator,
    DetectionReport,
    DnkSpec,
    EveAttack,
    GramReport,
    Message,
    OptimalityReport,
    PartyShare,
    PauliLabel,
    PauliString,
    SimulationReport,
    StateVector,
)

DETECTION = DetectionReport(0.0, 0.25, 0.125)
OPTIMALITY = OptimalityReport(2.0, 2, True, True, 0.0, True)
PROJECTOR = np.array([[1, 0], [0, 0]])

# Each record: its init arguments, its field names in order, and the repr of the
# record built from them (a callable of the record where the repr holds an array).
RECORDS = {
    StateVector: ((1, [1, 0]), ["n_qubits", "amplitudes"],
                  "StateVector(1+0j|0>)"),
    PauliString: (((PauliLabel.X, PauliLabel.IY), (1, 3)), ["labels", "targets"],
                  "PauliString(labels=(<PauliLabel.X: 'X'>, <PauliLabel.IY: 'iY'>), "
                  "targets=(1, 3))"),
    DensityOperator: ((1, PROJECTOR), ["n_qubits", "matrix", "_spectrum"],
                      lambda r: f"DensityOperator(n_qubits=1, matrix={r.matrix!r})"),
    Bipartition: (((2, 1), (3,)), ["alice", "bob"], "Bipartition(alice=(1, 2), bob=(3,))"),
    AmeReport: ((True, 0.0, {(1,): 1.0}), ["is_ame", "max_residual", "entropies", "failing"],
                "AmeReport(is_ame=True, max_residual=0.0, failing=None)"),
    OptimalityReport: ((2.0, 2, True, True, 0.0, True),
                       ["capacity", "holevo_bound", "alice_size_sufficient",
                        "bob_marginal_maximally_mixed", "bob_marginal_residual", "optimal"],
                       "OptimalityReport(capacity=2.0, holevo_bound=2, "
                       "alice_size_sufficient=True, bob_marginal_maximally_mixed=True, "
                       "bob_marginal_residual=0.0, optimal=True)"),
    AuditReport: ((OPTIMALITY, True, True, 0.0, None, 4, 0),
                  ["optimality", "ame", "gme", "ame_residual", "gram", "messages_checked",
                   "failures"],
                  "AuditReport(optimality=OptimalityReport(capacity=2.0, holevo_bound=2, "
                  "alice_size_sufficient=True, bob_marginal_maximally_mixed=True, "
                  "bob_marginal_residual=0.0, optimal=True), ame=True, gme=True, "
                  "ame_residual=0.0, gram=None, messages_checked=4, failures=0)"),
    Message: (((1, 0, 1),), ["bits"], "Message(bits=(1, 0, 1))"),
    PartyShare: ((1, (1,), (1, 2)), ["party", "qubits", "bits"],
                 "PartyShare(party=1, qubits=(1,), bits=(1, 2))"),
    DnkSpec: ((3, 2), ["n_bits", "n_senders"], "DnkSpec(n_bits=3, n_senders=2)"),
    GramReport: ((2, 4, 0.0, 1e-16), ["n_bits", "dimension", "max_off_diagonal",
                                      "max_diagonal_deviation"],
                 "GramReport(n_bits=2, dimension=4, max_off_diagonal=0.0, "
                 "max_diagonal_deviation=1e-16)"),
    CodeBasis: ((DnkSpec(2, 1), np.eye(4)), ["spec", "states"],
                lambda r: f"CodeBasis(spec=DnkSpec(n_bits=2, n_senders=1), states={r.states!r})"),
    EveAttack: ((np.eye(4),), ["unitary"], lambda r: f"EveAttack(unitary={r.unitary!r})"),
    DetectionReport: ((0.0, 0.25, 0.125),
                      ["computational_inconsistency", "hadamard_inconsistency", "probability"],
                      "DetectionReport(computational_inconsistency=0.0, "
                      "hadamard_inconsistency=0.25, probability=0.125)"),
    CertificateReport: ((0.0, 0.0, 0.0, 0.0, True),
                        ["flip_01", "flip_10", "branch_mismatch_min_phase", "branch_mismatch",
                         "undetectable"],
                        "CertificateReport(flip_01=0.0, flip_10=0.0, "
                        "branch_mismatch_min_phase=0.0, branch_mismatch=0.0, undetectable=True)"),
    SimulationReport: ((10, 0.0, 5, 5, 5, 4, 1, 0.1, 1.0, 0.8, True, DETECTION),
                       ["rounds", "threshold", "computational_rounds",
                        "computational_consistent", "hadamard_rounds", "hadamard_consistent",
                        "detections", "detection_rate", "computational_rate", "hadamard_rate",
                        "aborted", "exact"],
                       "SimulationReport(rounds=10, threshold=0.0, computational_rounds=5, "
                       "computational_consistent=5, hadamard_rounds=5, hadamard_consistent=4, "
                       "detections=1, detection_rate=0.1, computational_rate=1.0, "
                       "hadamard_rate=0.8, aborted=True, exact=DetectionReport("
                       "computational_inconsistency=0.0, hadamard_inconsistency=0.25, "
                       "probability=0.125))"),
}
BY_IDENTITY = {StateVector, DensityOperator, CodeBasis, EveAttack}  # eq=False
UNHASHABLE = {AmeReport}  # its entropies field is a dict


def build(cls):
    return cls(*RECORDS[cls][0])


def init_names(cls):
    return [f.name for f in dataclasses.fields(cls) if f.init]


def listed(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


def values(record):
    """The record's init field values, arrays as lists, to compare two records."""
    return [listed(getattr(record, name)) for name in init_names(type(record))]


def test_every_public_record_is_here():
    import densecode

    records = {obj for obj in vars(densecode).values() if dataclasses.is_dataclass(obj)}
    assert records == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_match_args_and_signature(cls):
    assert [f.name for f in dataclasses.fields(cls)] == RECORDS[cls][1]
    assert cls.__match_args__ == tuple(init_names(cls))
    signature = inspect.signature(cls)
    assert list(signature.parameters) == init_names(cls)
    assert signature.return_annotation is None


def test_signatures_read_as_dataclass_gives_them():
    assert str(inspect.signature(StateVector)) == (
        "(n_qubits: 'int', amplitudes: 'np.ndarray') -> None")
    assert str(inspect.signature(AmeReport)) == (
        "(is_ame: 'bool', max_residual: 'float', entropies: 'dict[tuple[int, ...], float]', "
        "failing: 'tuple[int, ...] | None' = None) -> None")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_and_astuple_round_trip(cls):
    record = build(cls)
    copy = dataclasses.replace(record)
    assert type(copy) is cls and copy is not record
    assert values(copy) == values(record)
    # astuple holds every field, init=False ones too, a record field as its astuple
    fields = dataclasses.fields(cls)
    flat = dataclasses.astuple(record)
    want = [getattr(record, f.name) for f in fields]
    nested = [dataclasses.is_dataclass(v) for v in want]
    assert list(map(listed, flat)) == [
        dataclasses.astuple(v) if inner else listed(v) for v, inner in zip(want, nested)]
    if not any(nested):
        again = cls(*[v for f, v in zip(fields, flat) if f.init])
        assert values(again) == values(record)
    first = init_names(cls)[0]
    changed = dataclasses.replace(record, **{first: getattr(record, first)})
    assert values(changed) == values(record)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_is_pinned(cls):
    record = build(cls)
    want = RECORDS[cls][2]
    assert repr(record) == (want(record) if callable(want) else want)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_and_hash(cls):
    record, twin = build(cls), build(cls)
    assert record == record
    assert record.__eq__(tuple(values(record))) is NotImplemented
    if cls in BY_IDENTITY:
        assert record != twin
        assert hash(record) == object.__hash__(record)
        return
    assert record == twin and not record != twin
    other = object.__new__(cls)  # past __post_init__, which may refuse the value
    vars(other).update(vars(record), **{init_names(cls)[-1]: object()})
    assert record != other
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(
            getattr(record, f.name) for f in dataclasses.fields(cls)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_frozen(cls):
    record = build(cls)
    for name in [*init_names(cls), "other"]:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(record, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(record, name)
    assert values(record) == values(build(cls))


def generated(cls):
    """A ``@dataclass(frozen=True)`` of ``cls``'s name and init fields, whose
    ``__init__`` is the code dataclass generates."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls) if f.init], frozen=True)


def type_error(cls, *args, **kwargs):
    with pytest.raises(TypeError) as caught:
        cls(*args, **kwargs)
    return str(caught.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_bad_call_raises_type_error(cls):
    args = RECORDS[cls][0]
    names = init_names(cls)
    required = [f for f in dataclasses.fields(cls) if f.init and f.default is dataclasses.MISSING]
    calls = [args[:len(required) - 1], (), (*args, *[None] * (len(names) - len(args) + 1))]
    for call in calls:
        assert type_error(cls, *call) == type_error(generated(cls), *call)
    assert type_error(cls, *args, bogus=1) == type_error(generated(cls), *args, bogus=1)
    twice = {names[0]: args[0]}
    assert type_error(cls, *args, **twice) == type_error(generated(cls), *args, **twice)
    by_name = cls(**dict(reversed(list(zip(names, args)))))
    assert values(by_name) == values(build(cls))
    assert list(vars(by_name))[:len(names)] == names  # fields in order, as dataclass sets them


def test_bad_call_texts_are_pinned():
    assert type_error(AmeReport, True, 0.0, {}, None, None) == (
        "AmeReport.__init__() takes from 4 to 5 positional arguments but 6 were given")
    assert type_error(AmeReport, True) == (
        "AmeReport.__init__() missing 2 required positional arguments: "
        "'max_residual' and 'entropies'")
    assert type_error(PartyShare) == (
        "PartyShare.__init__() missing 3 required positional arguments: "
        "'party', 'qubits', and 'bits'")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_dataclass_params_report_frozen(cls):
    params = cls.__dataclass_params__
    assert (params.init, params.repr, params.frozen) == (True, True, True)
    assert params.eq is (cls not in BY_IDENTITY)


def test_a_subclass_must_be_a_frozen_dataclass():
    @dataclasses.dataclass(frozen=True)
    class Flagged(DetectionReport):
        flag: int = 0

    record = Flagged(0.0, 0.25, 0.125, flag=1)
    assert record == Flagged(0.0, 0.25, 0.125, 1) and record != DETECTION
    assert repr(record) == repr(DETECTION)[:-1].replace("DetectionReport", (
        "test_a_subclass_must_be_a_frozen_dataclass.<locals>.Flagged"), 1) + ", flag=1)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.flag = 2
    with pytest.raises(TypeError, match="cannot inherit non-frozen dataclass from a frozen one"):
        @dataclasses.dataclass
        class Thawed(DetectionReport):
            pass


def test_defaults_fill_missing_arguments():
    assert AmeReport(True, 0.0, {}).failing is None
    assert AmeReport(True, 0.0, {}, failing=(1,)).failing == (1,)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_class_level_post_init_patch_runs_on_construction(cls, monkeypatch):
    seen = []
    own = cls.__dict__.get("__post_init__")

    def spy(self):
        seen.append(type(self))
        if own is not None:
            own(self)

    monkeypatch.setattr(cls, "__post_init__", spy, raising=False)
    build(cls)
    assert seen == [cls]
