import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_cycle_line
from qtperm.constructions import psl2, symmetric_group
from qtperm.genfile import (GeneratorFile, ParseError, file_from_group,
                            format_generators, format_permutation,
                            group_from_file, parse_generators)
from qtperm.perm import Permutation

SAMPLE = """\
# a sample file
degree 4
label K4-ish
(1 2)(3 4)
[2, 1, 4, 3]  # image-list form of the same element
(1 3)(2 4)
"""


def test_parse_sample():
    gfile = parse_generators(SAMPLE)
    assert gfile.degree == 4
    assert gfile.label == "K4-ish"
    assert gfile.perms[0] == Permutation.from_cycles(4, [(0, 1), (2, 3)])
    assert gfile.perms[1] == gfile.perms[0]
    assert gfile.perms[2] == Permutation.from_cycles(4, [(0, 2), (1, 3)])
    assert group_from_file(gfile).order() == 4


def test_image_list_simple():
    gfile = parse_generators("degree 5\n[2, 1, 3, 4, 5]\n")
    assert gfile.perms[0] == Permutation.from_cycles(5, [(0, 1)])


def test_error_missing_degree():
    with pytest.raises(ParseError, match="degree"):
        parse_generators("(1 2)\n")


def test_error_nonpositive_degree():
    with pytest.raises(ParseError, match="positive"):
        parse_generators("degree 0\n(1 2)\n")


def test_error_no_generators():
    with pytest.raises(ParseError, match="no generators"):
        parse_generators("degree 3\n")


def test_error_point_out_of_range():
    with pytest.raises(ParseError, match="outside"):
        parse_generators("degree 3\n(1 4)\n")
    with pytest.raises(ParseError, match="outside"):
        parse_generators("degree 3\n[1, 2, 4]\n")


def test_error_repeated_point():
    with pytest.raises(ParseError, match="repeated") as exc:
        parse_generators("degree 3\n(1 2)(1 3)\n")
    assert exc.value.line == 2


def test_error_image_list_length():
    with pytest.raises(ParseError, match="entries"):
        parse_generators("degree 4\n[1, 2, 3]\n")


def test_error_image_list_not_bijective():
    with pytest.raises(ParseError):
        parse_generators("degree 3\n[1, 1, 2]\n")


@pytest.mark.parametrize("cycle", ["(,1 2)", "(1 2,)", "(1 2)(,3)",
                                   "(1,,2)", "(1 , , 2)"])
def test_error_separator_at_a_cycle_edge(cycle):
    # a separator at either end of a cycle, or a doubled comma, leaves an
    # empty token, which is not a point; between points a separator is one
    # comma with optional blanks around it, or a run of blanks
    with pytest.raises(ParseError, match="bad cycle syntax") as exc:
        parse_generators(f"degree 3\n{cycle}\n")
    assert exc.value.line == 2
    assert parse_generators("degree 3\n( 1, 2 )\n").perms == (
        Permutation.from_cycles(3, [(0, 1)]),)


def test_error_junk_line_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_generators("degree 3\n(1 2)\nhello\n")
    assert exc.value.line == 3


def test_format_permutation():
    assert format_permutation(Permutation.identity(4)) == "()"
    p = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert format_permutation(p) == "(1 2)(3 4 5)"


def test_round_trip_groups():
    for act in (symmetric_group(5), psl2(3)):
        gfile = file_from_group(act.group, label=act.label)
        back = parse_generators(format_generators(gfile))
        assert back.degree == gfile.degree
        assert back.label == act.label
        assert back.perms == gfile.perms
        assert group_from_file(back).order() == act.group.order()


def test_comments_and_blank_lines_ignored():
    text = "\n# lead\n\ndegree 2  # inline\n\n(1 2)\n\n"
    gfile = parse_generators(text)
    assert gfile.degree == 2
    assert len(gfile.perms) == 1


_SEPARATORS = [" ", ",", ", ", " , ", "\t", "  "]


@st.composite
def cycle_lines(draw):
    """Cycle lines of distinct points, or with points outside 1..degree or
    repeated, or with a bad token, separator or character."""
    degree = draw(st.integers(1, 12))
    bad_points, bad_syntax = draw(st.booleans()), draw(st.booleans())
    points = list(draw(st.permutations(range(1, degree + 1))))
    tokens = [str(p) for p in points[:draw(st.integers(0, degree))]]
    separators = _SEPARATORS
    if bad_points:
        for bad in draw(st.lists(st.sampled_from(
                ["0", str(degree + 1), "07", *tokens[:1]]), max_size=2)):
            tokens.insert(draw(st.integers(0, len(tokens))), bad)
    if bad_syntax:
        separators = _SEPARATORS + [",,", ""]
        if draw(st.booleans()):
            tokens.insert(draw(st.integers(0, len(tokens))), "")
    parts = []
    while True:
        k = draw(st.integers(0, len(tokens)))
        cycle, tokens = tokens[:k], tokens[k:]
        body = "".join(draw(st.sampled_from(separators)) + tok if i else tok
                       for i, tok in enumerate(cycle))
        pad = st.sampled_from(["", " "])
        parts.append(draw(pad) + "(" + draw(pad) + body + draw(pad) + ")")
        if not tokens:
            break
    line = "".join(parts)
    if bad_syntax and draw(st.booleans()):
        k = draw(st.integers(line.index("(") + 1, len(line)))
        line = line[:k] + draw(st.sampled_from("()x-+#[")) + line[k:]
    return degree, line


@settings(max_examples=300, deadline=None)
@given(cycle_lines(), st.integers(0, 3))
def test_cycle_lines_match_the_point_by_point_parser(case, blank_lines):
    degree, line = case
    lineno = blank_lines + 2
    text = f"degree {degree}\n" + "\n" * blank_lines + line + "\n"
    try:
        expected = parse_cycle_line(line.split("#", 1)[0].strip(), degree,
                                    lineno)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_generators(text)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        assert parse_generators(text).perms == (expected,)
