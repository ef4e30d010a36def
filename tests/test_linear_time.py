"""Every compiled pattern of the package searches in linear time.

The harness collects each module-level ``re.Pattern`` of ``rxnscope``, so a
new pattern is covered without a test edit. A pattern searches texts made
from a short sample of what it reads, cut at each point by a run of one
character: a blank, a digit, a letter or one of the pattern's own literal
characters, with the rest of the sample after the run or without it. A
run that the pattern can split many ways costs about n² steps, so
lengthening it 16 times makes a linear search about 16 times slower and a
quadratic one about 256 times. ``parse_smiles`` is timed the same way on
texts that grow by one repeated unit.
"""

import importlib
import pkgutil
import re
import time

import pytest

import rxnscope
from rxnscope.smiles import parse_smiles

try:
    from re import _constants as sre, _parser as sre_parse
except ImportError:  # Python 3.10 names them as top-level modules
    import sre_constants as sre
    import sre_parse

N = 200
GROWTH = 16
# A linear search grows about x16 and a quadratic one about x256; the
# bound sits between them, so noise on a shared machine cannot fail a
# linear pattern.
MAX_RATIO = 64
# CPU seconds a search of 16n characters must take before its growth is
# timed: a linear search of a few thousand characters takes microseconds.
SCREEN_S = 0.002

_REPEATS = tuple(
    op for op in (sre.MAX_REPEAT, sre.MIN_REPEAT, getattr(sre, "POSSESSIVE_REPEAT", None)) if op is not None
)
_CATEGORIES = {
    sre.CATEGORY_DIGIT: str.isdigit,
    sre.CATEGORY_NOT_DIGIT: lambda ch: not ch.isdigit(),
    sre.CATEGORY_SPACE: str.isspace,
    sre.CATEGORY_NOT_SPACE: lambda ch: not ch.isspace(),
    sre.CATEGORY_WORD: lambda ch: ch.isalnum() or ch == "_",
    sre.CATEGORY_NOT_WORD: lambda ch: not (ch.isalnum() or ch == "_"),
}


def module_patterns() -> dict[str, re.Pattern]:
    """Each compiled pattern bound at module level, by qualified name."""
    found = {}
    for info in pkgutil.walk_packages(rxnscope.__path__, "rxnscope."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, re.Pattern):
                found[f"{info.name}.{name}"] = value
    return found


def _literals(items) -> set[str]:
    """The characters a parsed pattern names literally, in classes too."""
    out = set()
    for op, av in items:
        if op is sre.LITERAL:
            out.add(chr(av))
        elif op is sre.IN:
            out |= _literals(av)
        elif op in _REPEATS:
            out |= _literals(av[2])
        elif op is sre.SUBPATTERN:
            out |= _literals(av[-1])
        elif op is sre.BRANCH:
            for branch in av[1]:
                out |= _literals(branch)
    return out


def _in_class(ch: str, items) -> bool:
    for op, av in items:
        if op is sre.LITERAL and ord(ch) == av:
            return True
        if op is sre.RANGE and av[0] <= ord(ch) <= av[1]:
            return True
        if op is sre.CATEGORY and _CATEGORIES.get(av, lambda ch: False)(ch):
            return True
    return False


def _member(items) -> str:
    """A character of the class ``items``."""
    negate = bool(items) and items[0][0] is sre.NEGATE
    candidates = sorted(_literals(items)) + list(" 0aAx-_.")
    return next(ch for ch in candidates if _in_class(ch, items) != negate)


def _samples(items) -> list[str]:
    """Short texts the parsed pattern reads: each repeat its fewest times,
    and one text per branch of each alternation; anchors and lookarounds
    add nothing."""
    out = [""]
    for op, av in items:
        if op is sre.LITERAL:
            parts = [chr(av)]
        elif op is sre.NOT_LITERAL:
            parts = ["x" if av != ord("x") else "y"]
        elif op is sre.ANY:
            parts = ["x"]
        elif op is sre.IN:
            parts = [_member(av)]
        elif op in _REPEATS:
            parts = [text * av[0] for text in _samples(av[2])]
        elif op is sre.SUBPATTERN:
            parts = _samples(av[-1])
        elif op is sre.BRANCH:
            parts = [text for branch in av[1] for text in _samples(branch)]
        else:
            continue
        out = [head + part for head in out for part in dict.fromkeys(parts)]
    return out


def families(pattern: re.Pattern) -> set[tuple[str, str, str]]:
    """(before, run character, after) of each text family of ``pattern``."""
    parsed = sre_parse.parse(pattern.pattern, pattern.flags)
    runs = {" ", "1", "a", "A"} | _literals(parsed)
    return {
        (sample[:k], run, after)
        for sample in _samples(parsed)
        for k in range(len(sample) + 1)
        for run in runs
        for after in (sample[k:], "")
    }


def _cpu_seconds(pattern: re.Pattern, text: str) -> float:
    start = time.process_time()
    pattern.search(text)
    return time.process_time() - start


def growth(pattern: re.Pattern, before: str, run: str, after: str) -> float:
    """How many times longer a search takes on a run 16 times as long,
    each time the best of three."""

    def best(n: int) -> float:
        return min(_cpu_seconds(pattern, before + run * n + after) for _ in range(3))

    return best(GROWTH * N) / max(best(N), 1e-9)


PATTERNS = module_patterns()


def test_harness_sees_the_text_readers():
    assert {
        "rxnscope.reaction._TEMP_VALUE",
        "rxnscope.reaction._PART_SPLIT",
        "rxnscope.chemops._PHENYL",
        "rxnscope.smiles._BRACKET_RE",
    } <= set(PATTERNS)


def test_families_reach_the_runs_that_once_backtracked():
    # A digit then blanks (the temperature value) and "0-a" then digits
    # (the substituted phenyl) each once took quadratic time.
    assert ("0", " ", "") in families(PATTERNS["rxnscope.reaction._TEMP_VALUE"])
    assert ("0-a", "1", "") in families(PATTERNS["rxnscope.chemops._PHENYL"])


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_search_grows_linearly(name):
    pattern = PATTERNS[name]
    slow = []
    for before, run, after in sorted(families(pattern)):
        if _cpu_seconds(pattern, before + run * (GROWTH * N) + after) < SCREEN_S:
            continue
        ratio = growth(pattern, before, run, after)
        if ratio >= MAX_RATIO:
            slow.append((before, run, after, round(ratio)))
    assert slow == []


# SMILES texts of n characters, each lengthened by one repeated unit:
# a chain, nested branches, ring digits closed and reused, ``%nn``
# closures, bracket atoms and aromatic rings.
SMILES_FAMILIES = {
    "chain": lambda n: "C" * n,
    "nested-branches": lambda n: "C(" * (n // 2) + "C" + ")" * (n // 2),
    "reused-ring-digits": lambda n: "C1CC1" * (n // 5),
    "percent-closures": lambda n: "C%12CC%12" * (n // 9),
    "bracket-atoms": lambda n: "[13CH2]" * (n // 7),
    "aromatic-rings": lambda n: "c1ccccc1" * (n // 8),
}


@pytest.mark.parametrize("family", sorted(SMILES_FAMILIES))
def test_parse_smiles_grows_linearly(family):
    make = SMILES_FAMILIES[family]

    def best(n: int) -> float:
        text = make(n)
        times = []
        for _ in range(3):
            start = time.process_time()
            parse_smiles(text)
            times.append(time.process_time() - start)
        return min(times)

    assert best(GROWTH * N) / max(best(N), 1e-9) < MAX_RATIO
