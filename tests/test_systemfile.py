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
    assert parse_complex_literal("- 0.5i") == -0.5j
    assert parse_complex_literal("1 + i") == 1 + 1j
    assert parse_complex_literal("  -2 ") == -2
    assert parse_complex_literal("-i") == -1j
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


@pytest.mark.parametrize("text", ["\u0663+\u0661i", "\uff11.\uff15", "1+\u0662i", "\u0663"])
def test_a_complex_literal_takes_only_ascii_digits(text):
    # Before: "\u0663+\u0661i" (Arabic-Indic 3 + 1i) read as (3+1j).
    with pytest.raises(ValueError, match="not a complex literal"):
        parse_complex_literal(text)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("system", "m", "\u0661", "m must be an integer"),
        ("system", "seed", "\u0663", "seed must be an integer"),
        ("integrator", "t1", "\uff11.\uff15", "t1 must be a number"),
        ("integrator", "dt", "0.\u0660\u0661", "dt must be a number"),
        ("tolerances", "drift", "1e-\u0663", "drift must be a number"),
        ("initial", "z1", "\u0663+\u0661i", "not a complex literal"),
        ("initial", "z\u0661", "1", "unknown initial coordinate"),
    ],
)
def test_a_numeric_field_takes_only_ascii_digits(tmp_path, section, key, value, message):
    # int(), float() and a \\d regex read any Unicode decimal digit; before,
    # each of these values was read as its ASCII number.
    lines = textwrap.dedent(MINIMAL).splitlines()
    header = lines.index(f"[{section}]") if f"[{section}]" in lines else None
    if header is None:
        lines += ["", f"[{section}]"]
        header = len(lines) - 1
    lines = [line for line in lines if line.split(" = ")[0] != key]
    lines.insert(header + 1, f"{key} = {value}")
    with pytest.raises(SystemFileError, match=message) as info:
        parse_system_file(_write(tmp_path, "\n".join(lines) + "\n"))
    assert info.value.line == header + 2


@pytest.mark.parametrize("old, new, message, line", [
    ("m = 1\n", "m = 0_1\n", "m must be an integer, got '0_1'", 2),
    ("name = minimal\n", "name = minimal\nseed = 1_0\n", "seed must be an integer, got '1_0'", 4),
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\n[integrator]\nt1 = 1_0\n",
     "t1 must be a number, got '1_0'", 12),
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\n[tolerances]\ndrift = 1e-1_0\n",
     "drift must be a number, got '1e-1_0'", 12),
])
def test_a_numeric_field_takes_no_digit_separators(tmp_path, old, new, message, line):
    # int() and float() read '_' between digits: before, t1 = 1_0 read as 10
    # and drift = 1e-1_0 as 1e-10.
    body = textwrap.dedent(MINIMAL).replace(old, new)
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("header", ["[surprise]", "[integrater]"])
def test_an_unknown_section_is_rejected_at_its_header(tmp_path, header):
    # Before, only a key line under it was rejected, so a file that ended
    # in an unknown header parsed.
    body = textwrap.dedent(MINIMAL) + f"\n{header}\n"
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == f"line 12: unknown section {header}"
    body = textwrap.dedent(MINIMAL).replace("[initial]\n", f"{header}\n# no keys\n\n[initial]\n")
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == f"line 8: unknown section {header}"


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_system_file(tmp_path / "absent.system")


# ---------------------------------------------- blanks, keys and branches


@pytest.mark.parametrize("text", ["1 2", "1e 3", "1.5 e-3", "1 2", "0.3+0. 1i", "1 +2 i"])
def test_a_blank_inside_a_number_is_not_a_complex_literal(tmp_path, text):
    # Before: every blank was deleted first, so "1 2" read as 12, "1e 3" as
    # 1000, "1.5 e-3" as 0.0015 and 1, a no-break space, 2 as 12.
    with pytest.raises(ValueError, match="not a complex literal"):
        parse_complex_literal(text)
    body = textwrap.dedent(MINIMAL).replace("z1 = 1\n", f"z1 = {text}\n")
    with pytest.raises(SystemFileError, match="not a complex literal") as info:
        parse_system_file(_write(tmp_path, body))
    assert info.value.line == 9


@pytest.mark.parametrize("old, new, message, line", [
    # Before, the first two were ignored, so the seed silently stayed 0.
    ("name = minimal\n", "name = minimal\nsead = 5\n", "unknown key 'sead' in [system]", 4),
    ("L = z1*w1\n", "L = z1*w1\nLagrangian = z1\n", "unknown key 'Lagrangian' in [lagrangian]", 7),
    # Before, the last t1 and the last drift won, and both forms named c
    # were kept while classify wrote one closedness flag for them.
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\n[integrator]\nt1 = 1\nt1 = 2\n",
     "duplicate 't1' in [integrator]", 13),
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\n[tolerances]\ndrift = 1\ndrift = 2\n",
     "duplicate 'drift' in [tolerances]", 13),
    ("[initial]\n", "[constraints]\nc = 1 ; 0\nc = 0 ; 1\n[initial]\n",
     "duplicate 'c' in [constraints]", 10),
    # One spelling per coordinate: z01 is not another name of z1.
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\nz01 = 2\n", "unknown initial coordinate 'z01'", 11),
])
def test_a_key_appears_once_and_only_where_known(tmp_path, old, new, message, line):
    body = textwrap.dedent(MINIMAL).replace(old, new)
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("old, new, message, line", [
    ("[lagrangian]\n", "[lagrangian\n", "unterminated section header", 5),
    ("name = minimal\n", "name = minimal\nseed 3\n", "expected 'key = value', got 'seed 3'", 4),
    ("[system]\n", "m = 1\n[system]\n", "key outside any [section]", 1),
    ("[initial]\n", "[constraints]\nc = 1 ; z1*\n[initial]\n",
     "bad coefficient in 'c': unexpected end of input (at position 3)", 9),
    ("[initial]\n", "[constraints]\na = 1 ; 0\nb = 0 ; 1\n[initial]\n",
     "at most 2m-1=1 constraints are allowed", 10),
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\nw2 = 1\n", "coordinate 'w2' out of range for m=1", 11),
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\n[integrator]\nt1 = -1\n", "t1 must be nonnegative", 12),
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\n[integrator]\ndt = 0\n", "dt must be positive", 12),
    ("w1 = 0.5-0.4i\n", "w1 = 0.5-0.4i\n[integrator]\nsteps = 9\n",
     "unknown integrator key 'steps'", 12),
    ("z1 = 1\n", "z1 = 1\nz1 = 2\n", "duplicate initial coordinate 'z1'", 10),
])
def test_each_validation_error_names_its_line(tmp_path, old, new, message, line):
    body = textwrap.dedent(MINIMAL).replace(old, new)
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line


@pytest.mark.parametrize("m, key", [(1, "z" + "9" * 5000), (1, "w10"), (9, "z10"), (10, "w99")],
                         ids=["5000-digits", "w10", "z10", "w99"])
def test_an_initial_index_past_m_is_out_of_range_at_its_line(tmp_path, m, key):
    # An index with more digits than m is rejected before int() reads it:
    # before, 5,000 digits raised int()'s untyped "Exceeds the limit (4300
    # digits) for integer string conversion" with no line number.
    body = (f"[system]\nm = {m}\n\n[lagrangian]\nL = z1*w1\n\n[initial]\n"
            f"z1 = 1\nw1 = 0\n{key} = 1\n")
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == f"line 10: coordinate {key!r} out of range for m={m}"


@pytest.mark.parametrize("m, initial, missing", [
    (1, "z1 = 1\n", "w1"),
    (3, "z1 = 1\nw2 = 0\n", "z2, z3, w1, w3"),
    (10, "", ", ".join(f"{kind}{i}" for kind in "zw" for i in range(1, 11))),
    # Past 20 missing coordinates the rest are counted, so a huge m fails
    # fast: before, m = 10**9 made two lists of a billion entries.
    (11, "", ", ".join([f"z{i}" for i in range(1, 12)] + [f"w{i}" for i in range(1, 10)])
     + " and 2 more"),
    (10**9, "z1 = 1\nw1 = 0\n", ", ".join(f"z{i}" for i in range(2, 22)) + " and 1999999978 more"),
], ids=["m=1", "m=3", "m=10", "m=11", "m=10**9"])
def test_the_missing_initial_coordinates_are_named_up_to_a_bound(tmp_path, m, initial, missing):
    body = f"[system]\nm = {m}\n\n[lagrangian]\nL = z1*w1\n\n[initial]\n{initial}"
    with pytest.raises(SystemFileError) as info:
        parse_system_file(_write(tmp_path, body))
    assert str(info.value) == f"line 1: [initial] must assign every coordinate; missing {missing}"
