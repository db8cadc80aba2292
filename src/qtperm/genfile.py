"""Line-oriented generator files: 1-based cycle or image-list notation."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .group import PermGroup
from .perm import Permutation, _identity_images, compose_with

_CYCLE_LINE = re.compile(r"^(\s*\(\s*[0-9\s,]*\))+\s*$")
# a comma with no point between it and the cycle's start, another comma or
# the cycle's end; between points a separator is one comma with optional
# blanks around it, or a run of blanks
_EMPTY_TOKEN = re.compile(r"[(,]\s*,|,\s*\)")
# comma-separated runs of ASCII digits, each with optional blanks around it
_IMAGE_LINE = re.compile(r"\[\s*(?:[0-9]+\s*(?:,\s*[0-9]+\s*)*)?\]")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class GeneratorFile:
    degree: int
    perms: tuple[Permutation, ...]
    label: str | None = None


def _parse_cycle_line(text: str, degree: int, lineno: int) -> tuple[int, ...]:
    if not _CYCLE_LINE.match(text):
        raise ParseError(f"bad cycle syntax: {text.strip()!r}", lineno)
    # an empty token is raised after the points of the cycles before it
    empty = _EMPTY_TOKEN.search(text)
    head = text[:text.rfind("(", 0, empty.start() + 1)] if empty else text
    points: list[int] = []
    successor: dict[int, int] = {}
    for body in head.replace(",", " ").replace(")", "").split("("):
        cycle = list(map(int, body.split()))
        points += cycle
        successor.update(zip(cycle, cycle[1:] + cycle[:1]))
    if points and (min(points) < 1 or max(points) > degree
                   or len(successor) != len(points)):
        _raise_at_bad_point(points, degree, lineno, "across cycles")
    if empty:
        raise ParseError(f"bad cycle syntax: {text.strip()!r}", lineno)
    ones = range(1, degree + 1)
    return tuple(map(successor.get, ones, ones))


def _raise_at_bad_point(points: list[int], degree: int, lineno: int,
                        where: str) -> None:
    """Name the first point outside 1..degree or repeated ``where``."""
    seen: set[int] = set()
    for p in points:
        if not 1 <= p <= degree:
            raise ParseError(f"point {p} outside 1..{degree}", lineno)
        if p in seen:
            raise ParseError(f"point {p} repeated {where}", lineno)
        seen.add(p)


def _parse_image_line(text: str, degree: int, lineno: int) -> tuple[int, ...]:
    text = text.strip()
    if not _IMAGE_LINE.fullmatch(text):
        raise ParseError(f"bad image list: {text!r}", lineno)
    body = text[1:-1]
    images = [int(tok) for tok in body.split(",")] if body.strip() else []
    if len(images) != degree:
        raise ParseError(
            f"image list has {len(images)} entries, expected {degree}", lineno)
    if min(images) < 1 or max(images) > degree or len(set(images)) != degree:
        _raise_at_bad_point(images, degree, lineno, "in the image list")
    return tuple(images)


def parse_generators(text: str) -> GeneratorFile:
    """Parse a generator file; raises ParseError with the offending line."""
    degree: int | None = None
    label: str | None = None
    perms: list[Permutation] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_line = lineno
        if degree is None:
            m = re.fullmatch(r"degree\s+(-?[0-9]+)", line)
            if not m:
                raise ParseError("expected 'degree N' before anything else", lineno)
            degree = int(m.group(1))
            if degree <= 0:
                raise ParseError(f"degree must be positive, got {degree}", lineno)
            continue
        m = re.fullmatch(r"label(?:\s+(.*))?", line)
        if m:
            label = m.group(1)
            continue
        if line.startswith("("):
            images = _parse_cycle_line(line, degree, lineno)
        elif line.startswith("[") and line.endswith("]"):
            images = _parse_image_line(line, degree, lineno)
        else:
            raise ParseError(f"unrecognized line: {line!r}", lineno)
        # the images are 1-based and checked; shifted[p] is the shared int p - 1
        shifted = (None, *_identity_images(degree))
        perms.append(Permutation._unchecked(compose_with(images)(shifted)))
    if degree is None:
        raise ParseError("missing 'degree N' declaration", last_line + 1)
    if not perms:
        raise ParseError("no generators given", last_line + 1)
    return GeneratorFile(degree, tuple(perms), label)


def format_permutation(p: Permutation) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)


def format_generators(gfile: GeneratorFile) -> str:
    lines = [f"degree {gfile.degree}"]
    if gfile.label:
        lines.append(f"label {gfile.label}")
    lines.extend(format_permutation(p) for p in gfile.perms)
    return "\n".join(lines) + "\n"


def group_from_file(gfile: GeneratorFile) -> PermGroup:
    return PermGroup(gfile.perms, gfile.degree)


def file_from_group(group: PermGroup, label: str | None = None) -> GeneratorFile:
    return GeneratorFile(group.degree, group.generators, label)
