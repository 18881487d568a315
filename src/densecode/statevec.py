"""Dense pure-state simulation of qubit registers.

Conventions used throughout the package:

* Qubits are numbered 1..n and qubit 1 is the MOST significant bit of the
  amplitude index, so ``basis_ket(3, 4)`` is ``|100>`` (qubit 1 set).
* The label set for encoding operations is {I, X, Z, iY}.  ``iY`` is the
  real matrix [[0, 1], [-1, 0]] (equal to Z @ X), which keeps every state
  produced by the coding protocols real-valued.
* States are immutable; every operation returns a fresh ``StateVector``.
  Randomized operations take a ``numpy.random.Generator`` explicitly.
* Physical states are only defined up to a global phase.  Wherever two
  states must be compared "as states", ``equal_up_to_global_phase`` is the
  single source of truth.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

NORM_TOLERANCE = 1e-9
PHASE_TOLERANCE = 1e-9
CHUNK = 2**14  # amplitudes per chunk of a state's copy: 256 KiB, within L2

_SQRT_HALF = 1.0 / np.sqrt(2.0)


def _integer(name: str, value: Any) -> int:
    """An integer count or index ``value`` as an int, else a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(name: str, value: float, high: float = math.inf) -> None:
    """Refuse a tolerance or threshold ``value`` outside [0, ``high``], naming ``name``."""
    if not (math.isfinite(value) and 0 <= value <= high):
        span = f"in [0, {high:g}]" if math.isfinite(high) else ">= 0"
        raise ValueError(f"{name} must be a finite number {span}, got {value!r}")


def _first_byte(flags: np.ndarray) -> int:
    """The place of the first nonzero byte of ``flags``, a chunk of a state's input as
    bools, one per byte, and -1 when it holds none.  The bool argmax stops at the first
    one, so a live chunk is read only that far; it copies a read-only chunk first."""
    at = int(flags.argmax())
    return at if flags[at] else -1


# ---------------------------------------------------------------------------
# Records: frozen dataclasses without generated code


def _values(names: tuple[str, ...]) -> Callable[[Any], tuple]:
    """The tuple of a record's values of ``names``, as a function of the record."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def _bind(where: str, init: tuple[str, ...], defaults: dict[str, Any],
          args: tuple, kwargs: dict[str, Any]) -> dict[str, Any]:
    """The values of the ``init`` fields in order, from one call's ``args`` and
    ``kwargs`` and the ``defaults``; a bad call raises the TypeError that a
    generated ``__init__`` raises, naming ``where``."""
    if len(args) > len(init):
        least = len(init) - len(defaults) + 1
        takes = f"from {least} to " if defaults else ""
        raise TypeError(f"{where} takes {takes}{len(init) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    given = dict(zip(init, args))
    for name, value in kwargs.items():
        if name not in init:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        given[name] = value
    missing = [repr(name) for name in init if name not in given and name not in defaults]
    if missing:
        if len(missing) > 2:  # as CPython lists them: 'a', 'b', and 'c'
            missing[-1] = "and " + missing[-1]
        names = (", " if len(missing) > 2 else " and ").join(missing)
        raise TypeError(f"{where} missing {len(missing)} required positional argument"
                        f"{'s' if len(missing) > 1 else ''}: {names}")
    return {name: given[name] if name in given else defaults[name] for name in init}


class _InitSignature:
    """A record class's ``inspect.signature``, the one dataclass's generated
    ``__init__`` gives: built from the init fields on each read."""

    def __get__(self, obj: Any, cls: type) -> Any:
        import inspect  # loaded with dataclasses

        empty, kind = inspect.Parameter.empty, inspect.Parameter.POSITIONAL_OR_KEYWORD
        return inspect.Signature(
            [inspect.Parameter(f.name, kind, annotation=f.type,
                               default=empty if f.default is MISSING else f.default)
             for f in fields(cls) if f.init], return_annotation=None)


_INIT_SIGNATURE = _InitSignature()


def _record(cls: Optional[type] = None, /, *, eq: bool = True) -> Any:
    """``@dataclass(frozen=True)``, or ``frozen=True, eq=False`` given ``eq=False``,
    without the code dataclass generates and compiles for each class.

    ``dataclass(init=False, repr=False, eq=False)`` collects the fields, which keeps
    ``fields``, ``replace``, ``astuple``, ``is_dataclass`` and ``__match_args__``;
    then one ``__init__``, ``__repr__``, ``__setattr__`` and ``__delattr__`` and,
    with ``eq``, ``__eq__`` and ``__hash__`` are installed, each unless the class
    defines its own.  They keep dataclass's rules: ``__init__`` takes the init
    fields by position or keyword, with their defaults, sets them, and then calls
    ``__post_init__``, looked up on each call, so that a patch of the class's
    method counts (an init=False field's default is read from the class, where
    dataclass leaves it); ``__repr__`` shows the repr=True fields; ``__eq__``
    compares the compare fields as a tuple, with an instance of the same class
    only, and ``__hash__`` hashes the hashed ones; assigning or deleting an
    attribute raises ``FrozenInstanceError``.  ``inspect.signature`` reads the
    init fields, and ``__dataclass_params__`` reports ``frozen`` and ``eq`` as
    dataclass does, so a subclass must be a frozen dataclass.  No
    ``default_factory`` or ``InitVar``."""
    if cls is None:
        return lambda cls: _record(cls, eq=eq)
    cls = dataclass(cls, init=False, repr=False, eq=False)
    every = fields(cls)
    if any(f.default_factory is not MISSING for f in every):
        raise TypeError(f"{cls.__name__}: a record field takes no default_factory")
    names = frozenset(f.name for f in every)
    init = tuple(f.name for f in every if f.init)
    defaults = {f.name: f.default for f in every if f.init and f.default is not MISSING}
    where = f"{cls.__qualname__}.__init__()"
    shown = tuple(f.name for f in every if f.repr)

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        if not kwargs and len(args) == len(init):
            values: Any = zip(init, args)
        elif not args and tuple(kwargs) == init:
            values = kwargs
        else:
            values = _bind(where, init, defaults, args, kwargs)
        vars(self).update(values)
        post = getattr(self, "__post_init__", None)
        if post is not None:
            post()

    def __repr__(self: Any) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self: Any, name: str, value: Any) -> None:
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self: Any, name: str) -> None:
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods: dict[str, Any] = dict(__init__=__init__, __repr__=__repr__,
                                   __setattr__=__setattr__, __delattr__=__delattr__,
                                   __signature__=_INIT_SIGNATURE)
    if eq:
        key = _values(tuple(f.name for f in every if f.compare))
        hashed = _values(tuple(f.name for f in every
                               if (f.compare if f.hash is None else f.hash)))

        def __eq__(self: Any, other: Any) -> Any:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self: Any) -> int:
            return hash(hashed(self))

        methods.update(__eq__=__eq__, __hash__=__hash__)
    own = vars(cls)
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    # report the parameters of @dataclass(frozen=True[, eq=False]), which a
    # dataclass subclass reads: it must be frozen too
    params = cls.__dataclass_params__
    params.init = params.repr = params.frozen = True
    params.eq = eq
    return cls


@_record(eq=False)
class StateVector:
    """Pure state of ``n_qubits`` qubits as 2**n complex amplitudes.

    The state keeps a private, read-only, C-ordered complex copy of the amplitudes,
    made from the C-order ravel of its input (an object or other non-numeric input
    is first converted to complex) into np.empty, one ``CHUNK`` at a time.  Only the
    chunks that hold a nonzero bit are copied: a chunk of zero bits, as most chunks
    of a large layout's code word are, is left unwritten, and its chunk number goes
    into ``_dead``.  The test reads a chunk up to its first nonzero byte
    (``_first_byte``), and each live chunk is weighed right after its copy, while it
    is still in L2: a dense chunk is read once, and the norm takes no second pass
    through memory.  The index of the first live chunk's first nonzero amplitude is
    kept as ``_start``, where a decode tries its first coset.  Such a copy is
    ``_copy``; ``amplitudes`` is built from it on first read, with its dead chunks
    zeroed, then made read-only, so the copy and the norm are bitwise those of a
    full copy, and ``_amplitudes_at`` reads it in place.  A chunk of -0.0 or of
    denormals holds nonzero bits and is copied.  |psi|^2, the sum from the left of
    the live chunks' |psi|^2, must lie within NORM_TOLERANCE of 1."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if _integer("n_qubits", self.n_qubits) < 1:
            raise ValueError(f"need at least one qubit, got {self.n_qubits}")
        size = 2**self.n_qubits
        src = np.asarray(self.amplitudes)
        if src.dtype.kind not in "biufc":  # an object array's items are references
            src = src.astype(complex)
        src = src.ravel()  # C order, as np.array reads it, and contiguous
        if src.size != size:
            raise ValueError(
                f"expected {size} amplitudes for {self.n_qubits} qubits, got {src.size}"
            )
        flags, width = src.view(bool), src.itemsize
        amps = np.empty(size, dtype=complex)  # the private copy
        flat = amps.view(float)  # real and imaginary parts: |psi|^2 in one pass
        dead, norm_sq, i, start = (), 0.0, 0, None
        while i < size:  # not a for over a range, which costs a small state 0.5 us cold
            at = _first_byte(flags[i * width:(i + CHUNK) * width])
            if at == -1:  # +0.0 in the input: zeroed on the first read of amplitudes
                dead += (i // CHUNK,)
            else:
                if start is None:  # the first live chunk's first nonzero
                    start = i + at // width
                amps[i:i + CHUNK] = src[i:i + CHUNK]
                part = flat[2 * i:2 * (i + CHUNK)]
                # vdot runs the same dot product as part @ part, but raises no overflow
                # warning: a norm that overflows to inf is refused just below
                norm_sq += float(np.vdot(part, part))
            i += CHUNK
        if not abs(norm_sq - 1.0) <= NORM_TOLERANCE:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm_sq!r}")
        state = vars(self)  # frozen: set past the dataclass's __setattr__
        if dead:
            del state["amplitudes"]  # built by __getattr__ on first read
        else:
            amps.flags.writeable = False
            state["amplitudes"] = amps
        state.update(_copy=amps, _dead=dead, _start=start)

    def __getattr__(self, name: str) -> Any:
        """``amplitudes``, on its first read from a copy with dead chunks: they are
        zeroed and the copy made read-only.  A shallow copy of the state shares the
        buffer, which the first of them to read it completes."""
        if name != "amplitudes" or "_dead" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        amps = self._copy
        if amps.flags.writeable:
            for c in self._dead:
                amps[c * CHUNK:(c + 1) * CHUNK] = 0.0
            amps.flags.writeable = False
        vars(self).update(amplitudes=amps, _dead=())
        return amps

    def _amplitudes_at(self, indices: np.ndarray) -> np.ndarray:
        """The amplitudes at ``indices``, a new array read from the copy in place, an
        index in a dead chunk read as +0.0: bitwise ``amplitudes[indices]``, without
        building ``amplitudes``."""
        t = self._copy[indices]
        if self._dead:  # only a state of several chunks has one
            dead = np.zeros(self._copy.size // CHUNK, dtype=bool)
            dead[list(self._dead)] = True
            t[dead[indices // CHUNK]] = 0.0
        return t

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per qubit (axis k = qubit k+1)."""
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def __repr__(self) -> str:
        terms = []
        for idx in np.nonzero(np.abs(self.amplitudes) > 1e-12)[0][:6]:
            terms.append(f"{self.amplitudes[idx]:.4g}|{idx:0{self.n_qubits}b}>")
        body = " + ".join(terms) if terms else "0"
        return f"StateVector({body})"


class PauliLabel(Enum):
    """Single-qubit encoding operations; all four are real matrices."""

    I = "I"
    X = "X"
    Z = "Z"
    IY = "iY"

    @property
    def bits(self) -> tuple[int, int]:
        """(x, z) decomposition: the label equals Z**z @ X**x up to sign."""
        return _LABEL_BITS[self]

    def __str__(self) -> str:
        return self.value


_LABEL_BITS = {
    PauliLabel.I: (0, 0),
    PauliLabel.X: (1, 0),
    PauliLabel.Z: (0, 1),
    PauliLabel.IY: (1, 1),
}
_BITS_LABEL = {bits: label for label, bits in _LABEL_BITS.items()}


def compose_labels(a: PauliLabel, b: PauliLabel) -> PauliLabel:
    """Product of two labels modulo sign (the group is Klein-four)."""
    ax, az = a.bits
    bx, bz = b.bits
    return _BITS_LABEL[(ax ^ bx, az ^ bz)]


@_record
class PauliString:
    """An ordered list of labels, one per targeted qubit (1-based indices)."""

    labels: tuple[PauliLabel, ...]
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "targets", tuple(_integer("target", q) for q in self.targets))
        if len(self.labels) != len(self.targets):
            raise ValueError("labels and targets must have equal length")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target qubits in {self.targets}")
        if any(q < 1 for q in self.targets):
            raise ValueError(f"qubit indices are 1-based, got {self.targets}")

    def label_on(self, qubit: int) -> PauliLabel:
        for lab, q in zip(self.labels, self.targets):
            if q == qubit:
                return lab
        return PauliLabel.I

    def restricted_to(self, qubits: Sequence[int]) -> "PauliString":
        """The sub-string acting on ``qubits`` (identity labels kept), read from one
        {target: label} dict."""
        on = dict(zip(self.targets, self.labels))
        return PauliString(tuple(on.get(q, PauliLabel.I) for q in qubits), tuple(qubits))

    def __str__(self) -> str:
        return "⊗".join(lab.value for lab in self.labels)


def _parity(v: np.ndarray) -> np.ndarray:
    """popcount(v) mod 2 for non-negative int64 v: each nibble's parity into
    its low bit, then one wrapping product sums the nibbles into the top."""
    v = v ^ (v >> 1)
    v = v ^ (v >> 2)
    return (((v & 0x1111111111111111) * 0x1111111111111111) >> 60) & 1


def basis_ket(n: int, index: int) -> StateVector:
    """Computational basis state |index> on an n-qubit register."""
    if _integer("n", n) < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    if not 0 <= _integer("index", index) < 2**n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return StateVector(n, amps)


def ghz_state(n: int) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    if _integer("n", n) < 2:
        raise ValueError(f"GHZ state needs at least 2 qubits, got {n}")
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = amps[-1] = _SQRT_HALF
    return StateVector(n, amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Combined register with a's qubits in the high (leading) positions."""
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def _check_targets(n: int, qubits: Iterable[int]) -> list[int]:
    """``qubits`` as ints, each an integer in 1..n, else a ValueError."""
    qs = [_integer("target", q) for q in qubits]
    bad = [q for q in qs if not 1 <= q <= n]
    if bad:
        raise ValueError(f"target qubits {bad} outside register 1..{n}")
    return qs


def apply_pauli_string(state: StateVector, ps: PauliString) -> StateVector:
    """Apply each label to its qubit.

    I: identity.  X: flip the bit.  Z: negate amplitudes with bit = 1.
    iY: flip the bit and negate the amplitude that came from bit = 0.
    """
    _check_targets(state.n_qubits, ps.targets)
    t = state.tensor().copy()
    for label, qubit in zip(ps.labels, ps.targets):
        ax = qubit - 1
        if label is PauliLabel.I:
            continue
        if label in (PauliLabel.X, PauliLabel.IY):
            t = np.flip(t, axis=ax)
        if label in (PauliLabel.Z, PauliLabel.IY):
            # After the iY flip, the amplitudes that must pick up the minus
            # sign (source bit 0) sit in the bit = 1 slice, same as plain Z.
            sl = [slice(None)] * state.n_qubits
            sl[ax] = 1
            t[tuple(sl)] = -t[tuple(sl)]
    return StateVector(state.n_qubits, t.reshape(-1))


def _butterfly(t: np.ndarray, strides: Iterable[int]) -> np.ndarray:
    """A Hadamard on the index bit of each stride of ``t``'s last axis, in the
    order given: each pair (lo, hi) at that stride becomes (lo + hi, lo - hi)
    times sqrt(1/2), in a new array of ``t``'s shape.  ``t`` is float64 or
    complex128, whose dtype the scale keeps, so each stride fills one array."""
    shape = t.shape
    for stride in strides:
        v = t.reshape(-1, 2, stride)
        t = np.empty(v.shape, dtype=v.dtype)
        np.add(v[:, 0], v[:, 1], out=t[:, 0])
        np.subtract(v[:, 0], v[:, 1], out=t[:, 1])
        t *= _SQRT_HALF
    return t.reshape(shape)


def hadamard_on(state: StateVector, qubits: Iterable[int]) -> StateVector:
    """Hadamard applied to the given qubits."""
    n = state.n_qubits
    qs = sorted(set(_check_targets(n, qubits)))
    return StateVector(n, _butterfly(state.amplitudes, [2 ** (n - q) for q in qs]))


def hadamard_all(state: StateVector) -> StateVector:
    """Rewrite into the |+>/|-> basis: bit 0 of the result means |+>, bit 1
    means |->.  Self-inverse."""
    return hadamard_on(state, range(1, state.n_qubits + 1))


def apply_two_qubit(state: StateVector, matrix: np.ndarray, qubits: tuple[int, int]) -> StateVector:
    """Apply a 4x4 matrix to an ordered qubit pair (first qubit = high bit)."""
    q1, q2 = qubits
    if q1 == q2:
        raise ValueError("two-qubit gate needs two distinct qubits")
    _check_targets(state.n_qubits, (q1, q2))
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    n = state.n_qubits
    t = state.tensor()
    t = np.moveaxis(t, (q1 - 1, q2 - 1), (0, 1))
    shape = t.shape
    t = m @ t.reshape(4, -1)
    t = np.moveaxis(t.reshape(shape), (0, 1), (q1 - 1, q2 - 1))
    return StateVector(n, t.reshape(-1))


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = PHASE_TOLERANCE) -> bool:
    """True when a = exp(i theta) b for some phase, entrywise within tol."""
    _finite("tol", tol)
    if a.n_qubits != b.n_qubits:
        return False
    overlap = np.vdot(b.amplitudes, a.amplitudes)
    if abs(overlap) < 1e-12:
        return False
    phase = overlap / abs(overlap)
    return bool(np.maximum.reduce(np.abs(a.amplitudes - phase * b.amplitudes)) <= tol)
