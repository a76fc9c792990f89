"""The goldens of FORMATS.md, run through the command-line frontend.

Each golden that names its command is compared with that command's
output: whole, or, where FORMATS.md excerpts it with `...`, piece by piece
in order from the first character.  A `json` block is one JSON document
wrapped for reading, so its lines are joined without the line breaks.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from multitri import parse_triangulation, serialize_triangulation
from multitri.cli import main

FORMATS = Path(__file__).resolve().parent.parent / "FORMATS.md"


def golden_blocks() -> dict[str, list[str]]:
    """The fenced blocks under each `## ` heading of FORMATS.md, in order."""
    blocks = {}
    for section in FORMATS.read_text().split("\n## ")[1:]:
        heading, _, body = section.partition("\n")
        blocks[heading] = [
            "".join(text.splitlines()) if lang == "json" else text.rstrip("\n")
            for lang, text in re.findall(r"^```(\w*)\n(.*?)^```$", body, re.M | re.S)]
    return blocks


def assert_matches(golden: str, output: str) -> None:
    """The output starts with the golden's first piece and holds the other
    pieces between its `...` excerpts after it, in order."""
    first, *pieces = golden.split("...")
    assert output.startswith(first)
    at = len(first)
    for piece in pieces:
        at = output.index(piece, at) + len(piece)


@pytest.fixture
def inputs(tmp_path):
    """The C_2 golden triangulation, and the one triangulation of the
    triangle at k=3, whose every edge is forced."""
    c2 = tmp_path / "c2.json"
    c2.write_text(golden_blocks()["Triangulation JSON"][1])
    triangle = tmp_path / "triangle.json"
    triangle.write_text('{"surface": "polygon", "n": 3, "k": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
    return {"c2.json": str(c2), "triangle.json": str(triangle)}


# (heading, block index, command, whole): a golden that is not whole is
# the first lines of the output.
RUNS = [
    ("Pipe dream ASCII", 1, "pipedream --input c2.json --format ascii", True),
    ("Pipe dream ASCII", 2, "pipedream --input triangle.json --format ascii", True),
    ("Pipe dream SVG", 0, "pipedream --input c2.json --format svg", False),
    ("Pipe dream SVG", 1, "pipedream --input triangle.json --format svg", True),
    ("Pipe dream JSON", 0, "pipedream --input c2.json --format json", True),
    ("Flip graph DOT", 0, "flip-graph --n 2 --format dot", True),
    ("Flip graph JSON", 0, "flip-graph --n 2 --format json", True),
    ("Verify reports", 0, "verify --suite regularity --n 2 --k 2", True),
    ("Conjecture bundle JSON", 0, "verify --suite conjectures --n 2 --k 3", True),
]


@pytest.mark.parametrize("heading,index,command,whole", RUNS)
def test_golden_matches_its_command(capsys, inputs, heading, index, command, whole):
    golden = golden_blocks()[heading][index]
    assert main([inputs.get(word, word) for word in command.split()]) == 0
    output = capsys.readouterr().out
    if "..." in golden:
        assert_matches(golden, output)
    elif whole:
        assert output == golden + "\n"
    else:
        assert output.startswith(golden + "\n")


@pytest.mark.parametrize("index", [1, 2])
def test_triangulation_goldens_round_trip(index):
    golden = golden_blocks()["Triangulation JSON"][index]
    assert json.dumps(serialize_triangulation(parse_triangulation(json.loads(golden)))) == golden
