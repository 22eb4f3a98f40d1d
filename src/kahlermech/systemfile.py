"""Line-oriented system description files.

A file consists of ``[section]`` headers with ``key = value`` lines; blank
lines and ``#`` comments are ignored.  A key appears at most once in a
section.  Sections:

* ``[system]``      ``m`` (chart dimension, required), optional ``name``
  and ``seed`` (the nonnegative sampling seed).
* ``[lagrangian]``  ``L = <expression>`` in the z/w grammar (required).
* ``[constraints]`` optional; each line is ``name = c1; c2; ...; c2m``,
  the 2m coefficient expressions ordered (dz1..dzm, dw1..dwm).
* ``[initial]``     one complex literal per coordinate: ``z1 = 0.4-0.2i``.
* ``[integrator]``  optional ``t1`` and ``dt`` (defaults 10 and 1e-3).
* ``[tolerances]``  optional per-check overrides, see ``KNOWN_TOLERANCES``.

Complex literals use the usual ``a+bi`` shape: ``2``, ``-0.5i``, ``1+2i``,
``1.5e-2-3i``, with each number an :data:`~kahlermech.expressions.NUMBER`.
Numeric fields, and the command line's numeric flags, are read by
:func:`read_number`.  An unknown section is an error at its header.
"""

from __future__ import annotations

import math
import re
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple

from ._record import record
from .dynamics import LagrangianSystem, PhaseState
from .expressions import NUMBER, Expr, ParseError, parse_expression
from .exterior import OneForm

if TYPE_CHECKING:
    from .constraints import ConstraintSet

DEFAULT_T1 = 10.0
DEFAULT_DT = 1e-3
# Sample count, seed and tolerance of closedness_test and frobenius_test;
# every command writes them in its ``defaults`` block.
DEFAULT_SAMPLES = 50
DEFAULT_SEED = 0
DEFAULT_TOL = 1e-8
# The check suite's thresholds; [tolerances] overrides them one by one.
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "antisymmetry": 1e-12,
    "closedness": 1e-6,
    "solve": 1e-10,
    "oracle": 1e-9,
    "drift": 1e-6,
    "constraint": 1e-8,
}
# The most missing [initial] coordinates an error names; it counts the rest.
MISSING_NAMED = 20

KNOWN_TOLERANCES = tuple(DEFAULT_THRESHOLDS)


class SystemFileError(Exception):
    """Malformed system file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# A sign, then a real part with an optional signed imaginary part, or an
# imaginary part alone; blanks only at the ends and around a sign.
_COMPLEX_RE = re.compile(
    rf"\s*(?P<sign>[+-]?)\s*(?:(?P<real>{NUMBER.pattern})"
    rf"(?:\s*(?P<isign>[+-])\s*(?P<imag>{NUMBER.pattern})?i)?"
    rf"|(?P<imonly>{NUMBER.pattern})?i)\s*"
)


def parse_complex_literal(text: str) -> complex:
    """Parse ``a+bi`` style literals ('2', '-0.5i', '1+2i', '1e-3-2i').

    Blanks may stand at the ends and on either side of a sign, nowhere else.
    """
    match = _COMPLEX_RE.fullmatch(text)
    if not match:
        raise ValueError(f"not a complex literal: {text!r}")
    sign, real, isign, imag, imonly = match.groups()
    if real is None:
        if imonly is None:
            return -1j if sign == "-" else 1j
        return complex(0.0, float(sign + imonly))
    if isign is None:
        return complex(float(sign + real), 0.0)
    return complex(float(sign + real), float(isign + (imag or "1")))


@record(factories={"tolerances": dict})
class SystemSpec:
    """Validated contents of a system file."""

    name: str
    m: int
    lagrangian_text: str
    lagrangian: Expr
    constraint_names: Tuple[str, ...]
    constraint_forms: Tuple[OneForm, ...]
    initial_z: Tuple[complex, ...]
    initial_w: Tuple[complex, ...]
    t1: float = DEFAULT_T1
    dt: float = DEFAULT_DT
    seed: int = DEFAULT_SEED
    tolerances: Dict[str, float]  # a new {} by default

    @property
    def r(self) -> int:
        return len(self.constraint_forms)

    def build_system(self) -> LagrangianSystem:
        return LagrangianSystem(self.m, self.lagrangian, self.constraint_forms)

    def initial_state(self) -> PhaseState:
        return PhaseState(0.0, self.initial_z, self.initial_w)

    def constraint_set(self) -> ConstraintSet:
        from .constraints import ConstraintSet  # only classify loads constraints

        if not self.constraint_forms:
            raise ValueError(f"system {self.name!r} declares no constraints")
        return ConstraintSet(self.constraint_forms, self.constraint_names)


def read_number(text: str, kind: type):
    """``text`` as ``kind``, int or float: read from its ASCII bytes, since
    a str takes any Unicode digit, and with no '_' between digits."""
    if "_" in text:
        raise ValueError(f"invalid {kind.__name__} literal: {text!r}")
    return kind(text.encode("ascii"))


def _finite_number(key: str, lineno: int, value: str, nonnegative: bool) -> float:
    try:
        number = read_number(value, float)
    except ValueError:
        raise SystemFileError(f"{key} must be a number, got {value!r}", lineno) from None
    if not math.isfinite(number):
        raise SystemFileError(f"{key} must be finite, got {value!r}", lineno)
    if nonnegative and number < 0:
        raise SystemFileError(f"{key} must be nonnegative", lineno)
    return number


def _integer(key: str, lineno: int, value: str, least: int) -> int:
    try:
        number = read_number(value, int)
    except ValueError:
        raise SystemFileError(f"{key} must be an integer, got {value!r}", lineno) from None
    if number < least:
        raise SystemFileError(f"{key} must be >= {least}, got {number}", lineno)
    return number


# The keys of the sections whose keys are fixed.
_KEYS = {"system": ("m", "name", "seed"), "lagrangian": ("L",)}
_SECTIONS = ("system", "lagrangian", "constraints", "initial", "integrator", "tolerances")


def _split_sections(text: str) -> Dict[str, Dict[str, Tuple[int, str]]]:
    """``{section: {key: (line_number, value)}}`` for every known section,
    each in file order.  A key appears at most once in a section."""
    table: Dict[str, Dict[str, Tuple[int, str]]] = {name: {} for name in _SECTIONS}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SystemFileError("unterminated section header", lineno)
            section = line[1:-1].strip().lower()
            if section not in table:
                raise SystemFileError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise SystemFileError(f"expected 'key = value', got {line!r}", lineno)
        key, value = map(str.strip, line.split("=", 1))
        if not section:
            raise SystemFileError("key outside any [section]", lineno)
        if key in table[section]:
            raise SystemFileError(
                f"duplicate initial coordinate {key!r}" if section == "initial"
                else f"duplicate {key!r} in [{section}]", lineno)
        if key not in _KEYS.get(section, (key,)):
            raise SystemFileError(f"unknown key {key!r} in [{section}]", lineno)
        table[section][key] = (lineno, value)
    return table


def parse_system_file(path) -> SystemSpec:
    """Load and validate a system description file."""
    path = Path(path)
    try:
        table = _split_sections(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    system = table["system"]

    if "m" not in system:
        raise SystemFileError("missing 'm' in [system]", 1)
    m = _integer("m", *system["m"], least=1)
    name = system["name"][1] if "name" in system else path.stem
    seed = _integer("seed", *system["seed"], least=0) if "seed" in system else DEFAULT_SEED

    if "L" not in table["lagrangian"]:
        raise SystemFileError("missing 'L' in [lagrangian]", 1)
    lineno, l_text = table["lagrangian"]["L"]
    try:
        lagrangian = parse_expression(l_text, m)
    except ParseError as err:
        raise SystemFileError(f"bad Lagrangian: {err}", lineno) from None

    constraint_names: List[str] = []
    constraint_forms: List[OneForm] = []
    for key, (lineno, value) in table["constraints"].items():
        pieces = [p.strip() for p in value.split(";")]
        if len(pieces) != 2 * m:
            raise SystemFileError(
                f"constraint {key!r} needs {2 * m} coefficients"
                f" (dz1..dz{m}, dw1..dw{m}), got {len(pieces)}",
                lineno,
            )
        coeffs = []
        for piece in pieces:
            try:
                coeffs.append(parse_expression(piece, m))
            except ParseError as err:
                raise SystemFileError(f"bad coefficient in {key!r}: {err}", lineno) from None
        constraint_names.append(key)
        constraint_forms.append(OneForm(tuple(coeffs[:m]), tuple(coeffs[m:])))
    if len(constraint_forms) > 2 * m - 1:
        raise SystemFileError(
            f"at most 2m-1={2 * m - 1} constraints are allowed", lineno
        )

    initial: Dict[str, complex] = {}
    for key, (lineno, value) in table["initial"].items():
        match = re.fullmatch(r"([zw])(0|[1-9][0-9]*)", key)  # one spelling per coordinate
        if not match:
            raise SystemFileError(f"unknown initial coordinate {key!r}", lineno)
        index = match.group(2)  # longer than m: out of range, without int()'s 4,300-digit limit
        if len(index) > len(str(m)) or not 1 <= int(index) <= m:
            raise SystemFileError(
                f"coordinate {key!r} out of range for m={m}", lineno
            )
        try:
            initial[key] = parse_complex_literal(value)
        except ValueError as err:
            raise SystemFileError(str(err), lineno) from None
    unassigned = 2 * m - len(initial)
    if unassigned:  # named up to a bound: nothing of length m is made before this
        names = (f"{kind}{i}" for kind in "zw" for i in range(1, m + 1))
        missing = list(islice((name for name in names if name not in initial), MISSING_NAMED))
        more = unassigned - len(missing)
        raise SystemFileError("[initial] must assign every coordinate; missing "
                              + ", ".join(missing) + (f" and {more} more" if more else ""), 1)

    t1, dt = DEFAULT_T1, DEFAULT_DT
    for key, (lineno, value) in table["integrator"].items():
        number = _finite_number(key, lineno, value, key == "t1")
        if key == "t1":
            t1 = number
        elif key == "dt":
            if number <= 0:
                raise SystemFileError("dt must be positive", lineno)
            dt = number
        else:
            raise SystemFileError(f"unknown integrator key {key!r}", lineno)

    tolerances: Dict[str, float] = {}
    for key, (lineno, value) in table["tolerances"].items():
        if key not in KNOWN_TOLERANCES:
            raise SystemFileError(
                f"unknown tolerance {key!r} (known: {', '.join(KNOWN_TOLERANCES)})", lineno
            )
        tolerances[key] = _finite_number(key, lineno, value, True)

    return SystemSpec(
        name=name,
        m=m,
        lagrangian_text=l_text,
        lagrangian=lagrangian,
        constraint_names=tuple(constraint_names),
        constraint_forms=tuple(constraint_forms),
        initial_z=tuple(initial[f"z{i}"] for i in range(1, m + 1)),
        initial_w=tuple(initial[f"w{i}"] for i in range(1, m + 1)),
        t1=t1,
        dt=dt,
        seed=seed,
        tolerances=tolerances,
    )
