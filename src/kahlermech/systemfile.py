"""Line-oriented system description files.

A file consists of ``[section]`` headers with ``key = value`` lines; blank
lines and ``#`` comments are ignored.  Sections:

* ``[system]``      ``m`` (chart dimension, required), optional ``name``
  and ``seed`` (the nonnegative sampling seed).
* ``[lagrangian]``  ``L = <expression>`` in the z/w grammar (required).
* ``[constraints]`` optional; each line is ``name = c1; c2; ...; c2m``,
  the 2m coefficient expressions ordered (dz1..dzm, dw1..dwm).
* ``[initial]``     one complex literal per coordinate: ``z1 = 0.4-0.2i``.
* ``[integrator]``  optional ``t1`` and ``dt`` (defaults 10 and 1e-3).
* ``[tolerances]``  optional per-check overrides, see ``KNOWN_TOLERANCES``.

Complex literals use the usual ``a+bi`` shape: ``2``, ``-0.5i``, ``1+2i``,
``1.5e-2-3i``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .checks import DEFAULT_THRESHOLDS
from .constraints import DEFAULT_SEED, ConstraintSet
from .dynamics import LagrangianSystem, PhaseState
from .expressions import Expr, ParseError, parse_expression
from .exterior import OneForm

DEFAULT_T1 = 10.0
DEFAULT_DT = 1e-3

KNOWN_TOLERANCES = tuple(DEFAULT_THRESHOLDS)


class SystemFileError(Exception):
    """Malformed system file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_UNSIGNED = r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_SIGNED = rf"[+-]?{_UNSIGNED}"
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<real>{_SIGNED})(?P<imag>[+-](?:{_UNSIGNED})?)i"
    rf"|(?P<imonly>[+-]?(?:{_UNSIGNED})?)i"
    rf"|(?P<realonly>{_SIGNED}))$"
)


def parse_complex_literal(text: str) -> complex:
    """Parse ``a+bi`` style literals ('2', '-0.5i', '1+2i', '1e-3-2i')."""
    s = re.sub(r"\s+", "", text)
    match = _COMPLEX_RE.match(s)
    if not match:
        raise ValueError(f"not a complex literal: {text!r}")
    if match.group("realonly") is not None:
        return complex(float(match.group("realonly")), 0.0)
    if match.group("imonly") is not None:
        part = match.group("imonly")
        if part in ("", "+"):
            return 1j
        if part == "-":
            return -1j
        return complex(0.0, float(part))
    real = float(match.group("real"))
    part = match.group("imag")
    imag = 1.0 if part == "+" else -1.0 if part == "-" else float(part)
    return complex(real, imag)


@dataclass
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
    tolerances: Dict[str, float] = field(default_factory=dict)

    @property
    def r(self) -> int:
        return len(self.constraint_forms)

    def build_system(self) -> LagrangianSystem:
        return LagrangianSystem(self.m, self.lagrangian, self.constraint_forms)

    def initial_state(self) -> PhaseState:
        return PhaseState(0.0, self.initial_z, self.initial_w)

    def constraint_set(self) -> ConstraintSet:
        if not self.constraint_forms:
            raise ValueError(f"system {self.name!r} declares no constraints")
        return ConstraintSet(self.constraint_forms, self.constraint_names)


def _finite_number(key: str, value: str, lineno: int) -> float:
    try:
        number = float(value.encode("ascii"))  # bytes: a str takes any Unicode digit
    except ValueError:
        raise SystemFileError(f"{key} must be a number, got {value!r}", lineno) from None
    if not math.isfinite(number):
        raise SystemFileError(f"{key} must be finite, got {value!r}", lineno)
    return number


def _split_sections(text: str) -> List[Tuple[str, int, str, str]]:
    """Yield (section, line_number, key, value) tuples."""
    out = []
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SystemFileError("unterminated section header", lineno)
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise SystemFileError(f"expected 'key = value', got {line!r}", lineno)
        key, value = line.split("=", 1)
        if not section:
            raise SystemFileError("key outside any [section]", lineno)
        out.append((section, lineno, key.strip(), value.strip()))
    return out


def parse_system_file(path) -> SystemSpec:
    """Load and validate a system description file."""
    path = Path(path)
    entries = _split_sections(path.read_text())
    by_section: Dict[str, List[Tuple[int, str, str]]] = {}
    for section, lineno, key, value in entries:
        by_section.setdefault(section, []).append((lineno, key, value))

    known = {"system", "lagrangian", "constraints", "initial", "integrator", "tolerances"}
    for section in by_section:
        if section not in known:
            raise SystemFileError(
                f"unknown section [{section}]", by_section[section][0][0]
            )

    def single(section: str, key: str) -> Optional[Tuple[int, str]]:
        found = [(ln, v) for ln, k, v in by_section.get(section, []) if k == key]
        if len(found) > 1:
            raise SystemFileError(f"duplicate {key!r} in [{section}]", found[1][0])
        return found[0] if found else None

    got = single("system", "m")
    if got is None:
        raise SystemFileError("missing 'm' in [system]", 1)
    lineno, value = got
    try:
        m = int(value.encode("ascii"))
    except ValueError:
        raise SystemFileError(f"m must be an integer, got {value!r}", lineno) from None
    if m < 1:
        raise SystemFileError(f"m must be >= 1, got {m}", lineno)

    got = single("system", "name")
    name = got[1] if got else path.stem

    seed = DEFAULT_SEED
    got = single("system", "seed")
    if got:
        lineno, value = got
        try:
            seed = int(value.encode("ascii"))
        except ValueError:
            raise SystemFileError(f"seed must be an integer, got {value!r}", lineno) from None
        if seed < 0:
            raise SystemFileError(f"seed must be >= 0, got {seed}", lineno)

    got = single("lagrangian", "L")
    if got is None:
        raise SystemFileError("missing 'L' in [lagrangian]", 1)
    lineno, l_text = got
    try:
        lagrangian = parse_expression(l_text, m)
    except ParseError as err:
        raise SystemFileError(f"bad Lagrangian: {err}", lineno) from None

    constraint_names: List[str] = []
    constraint_forms: List[OneForm] = []
    for lineno, key, value in by_section.get("constraints", []):
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

    z_vals: List[Optional[complex]] = [None] * m
    w_vals: List[Optional[complex]] = [None] * m
    for lineno, key, value in by_section.get("initial", []):
        match = re.fullmatch(r"([zw])([0-9]+)", key)
        if not match:
            raise SystemFileError(f"unknown initial coordinate {key!r}", lineno)
        kind, index = match.group(1), int(match.group(2))
        if not 1 <= index <= m:
            raise SystemFileError(
                f"coordinate {key!r} out of range for m={m}", lineno
            )
        try:
            parsed = parse_complex_literal(value)
        except ValueError as err:
            raise SystemFileError(str(err), lineno) from None
        target = z_vals if kind == "z" else w_vals
        if target[index - 1] is not None:
            raise SystemFileError(f"duplicate initial coordinate {key!r}", lineno)
        target[index - 1] = parsed
    missing = [
        f"{kind}{i + 1}"
        for kind, vals in (("z", z_vals), ("w", w_vals))
        for i, v in enumerate(vals)
        if v is None
    ]
    if missing:
        raise SystemFileError(
            f"[initial] must assign every coordinate; missing {', '.join(missing)}", 1
        )

    t1, dt = DEFAULT_T1, DEFAULT_DT
    for lineno, key, value in by_section.get("integrator", []):
        number = _finite_number(key, value, lineno)
        if key == "t1":
            if number < 0:
                raise SystemFileError("t1 must be nonnegative", lineno)
            t1 = number
        elif key == "dt":
            if number <= 0:
                raise SystemFileError("dt must be positive", lineno)
            dt = number
        else:
            raise SystemFileError(f"unknown integrator key {key!r}", lineno)

    tolerances: Dict[str, float] = {}
    for lineno, key, value in by_section.get("tolerances", []):
        if key not in KNOWN_TOLERANCES:
            raise SystemFileError(
                f"unknown tolerance {key!r} (known: {', '.join(KNOWN_TOLERANCES)})", lineno
            )
        tolerances[key] = _finite_number(key, value, lineno)

    return SystemSpec(
        name=name,
        m=m,
        lagrangian_text=l_text,
        lagrangian=lagrangian,
        constraint_names=tuple(constraint_names),
        constraint_forms=tuple(constraint_forms),
        initial_z=tuple(v for v in z_vals),  # type: ignore[misc]
        initial_w=tuple(v for v in w_vals),  # type: ignore[misc]
        t1=t1,
        dt=dt,
        seed=seed,
        tolerances=tolerances,
    )
