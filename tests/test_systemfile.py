"""System description files: parsing, validation and error reporting."""

import textwrap

import pytest

from kahlermech.expressions import parse_expression
from kahlermech.systemfile import (
    DEFAULT_DT,
    DEFAULT_T1,
    SystemFileError,
    parse_complex_literal,
    parse_system_file,
)
import desksuite


def _write(tmp_path, body, name="case.system"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


MINIMAL = """\
    [system]
    m = 1
    name = minimal

    [lagrangian]
    L = z1*w1

    [initial]
    z1 = 1
    w1 = 0.5-0.4i
"""


# ------------------------------------------------------------------ literals


def test_complex_literal_forms():
    assert parse_complex_literal("1") == 1.0
    assert parse_complex_literal("-0.2+0.7i") == -0.2 + 0.7j
    assert parse_complex_literal("0.3i") == 0.3j
    assert parse_complex_literal("i") == 1j
    assert parse_complex_literal("1+i") == 1 + 1j
    assert parse_complex_literal("1e-3") == 1e-3
    assert parse_complex_literal("0.3 + 0.1i") == 0.3 + 0.1j
    with pytest.raises(ValueError):
        parse_complex_literal("1+2j")
    with pytest.raises(ValueError):
        parse_complex_literal("")


# ------------------------------------------------------------------- parsing


def test_parse_minimal_file(tmp_path):
    spec = parse_system_file(_write(tmp_path, MINIMAL))
    assert spec.name == "minimal"
    assert spec.m == 1
    assert spec.lagrangian_text == "z1*w1"
    assert spec.initial_z == (1.0,)
    assert spec.initial_w == (0.5 - 0.4j,)
    assert spec.t1 == DEFAULT_T1
    assert spec.dt == DEFAULT_DT
    assert spec.seed == 0
    assert spec.tolerances == {}
    assert spec.r == 0
    state = spec.initial_state()
    assert state.t == 0.0 and state.z == (1.0,)
    system = spec.build_system()
    assert system.m == 1


def test_parse_packaged_files_match_the_bench():
    for entry in desksuite.ALL:
        spec = parse_system_file(entry.system_file())
        assert spec.name == entry.name
        assert spec.m == entry.m
        assert spec.lagrangian == parse_expression(entry.lagrangian, entry.m)
        assert spec.initial_z == entry.initial_z
        assert spec.initial_w == entry.initial_w
        assert spec.constraint_names == tuple(
            label for label, _, _ in entry.constraints
        )


def test_parse_constraints_and_integrator(tmp_path):
    body = """\
        # A commented header line.
        [system]
        m = 2
        name = guided
        seed = 7

        [lagrangian]
        L = z1*w1 + z2*w2

        [constraints]
        hold = w2 ; 0 ; 0 ; z1

        [initial]
        z1 = 0.9+0.2i
        z2 = 0.1-0.5i
        w1 = 0.3-0.4i
        w2 = 0.8+0.1i

        [integrator]
        t1 = 2.5
        dt = 0.01

        [tolerances]
        drift = 1e-5
    """
    spec = parse_system_file(_write(tmp_path, body))
    assert spec.seed == 7
    assert spec.constraint_names == ("hold",)
    assert spec.t1 == 2.5 and spec.dt == 0.01
    assert spec.tolerances == {"drift": 1e-5}
    cs = spec.constraint_set()
    assert cs.r == 1 and cs.names == ("hold",)
    system = spec.build_system()
    assert system.r == 1


# -------------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "mutation, needle",
    [
        (lambda s: s.replace("m = 1\n", ""), "m"),
        (lambda s: s.replace("L = z1*w1\n", ""), "L"),
        (lambda s: s.replace("z1 = 1\n", ""), "z1"),
        (lambda s: s + "z1 = 2\n", "duplicate"),
        (lambda s: s + "surprise = 1\n", "surprise"),
        (lambda s: s.replace("[initial]", "[initials]"), "initials"),
        (lambda s: s.replace("w1 = 0.5-0.4i", "w1 = banana"), "banana"),
        (lambda s: s.replace("L = z1*w1", "L = z1*"), "Lagrangian"),
        (lambda s: s.replace("L = z1*w1", "L = z2*w1"), "z2"),
        (lambda s: s.replace("m = 1", "m = 0"), "m"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, mutation, needle):
    body = textwrap.dedent(MINIMAL)
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, mutation(body)))
    assert needle.lower() in str(info.value).lower()
    assert info.value.line >= 1


def test_constraint_component_count_is_checked(tmp_path):
    body = """\
        [system]
        m = 2
        name = short

        [lagrangian]
        L = z1*w1 + z2*w2

        [constraints]
        broken = w2 ; 0 ; 0

        [initial]
        z1 = 1
        z2 = 1
        w1 = 1
        w2 = 1
    """
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert "4" in str(info.value)


def test_unknown_tolerance_name_is_rejected(tmp_path):
    body = textwrap.dedent(MINIMAL) + "\n[tolerances]\nwarp = 1e-3\n"
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert "warp" in str(info.value)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("integrator", "t1", "nan"),
        ("integrator", "dt", "inf"),
        ("tolerances", "drift", "inf"),
        ("tolerances", "closedness", "nan"),
    ],
)
def test_non_finite_numbers_are_rejected_with_their_key(tmp_path, section, key, value):
    body = textwrap.dedent(MINIMAL) + f"\n[{section}]\n{key} = {value}\n"
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == f"line {len(body.splitlines())}: {key} must be finite, got '{value}'"


def test_a_negative_seed_is_rejected_with_its_line(tmp_path):
    # Before: numpy's "expected non-negative integer" when sampling.
    body = textwrap.dedent(MINIMAL).replace("name = minimal\n", "name = minimal\nseed = -2\n")
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == "line 4: seed must be >= 0, got -2"
    assert info.value.line == 4


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_system_file(tmp_path / "absent.system")
