"""The README's Python examples run as printed."""

import re
from pathlib import Path

import pytest

from conftest import run_fresh

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def commented_outputs(block: str) -> list:
    """Per print line of block, the output its comment gives (the text
    before any ": "), or None for a print line without a comment."""
    outputs = []
    for line in block.splitlines():
        if line.startswith("print("):
            _, comment, text = line.partition("#")
            outputs.append(text.strip().split(": ")[0] if comment else None)
    return outputs


def test_the_readme_comments_three_outputs():
    outputs = [out for block in BLOCKS for out in commented_outputs(block) if out is not None]
    assert outputs == ["2", "OrderVerdict(witness_t=None)", "(0.5, 0.5)"]


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_a_python_block_prints_its_commented_outputs(block):
    printed = run_fresh(block).splitlines()
    expected = commented_outputs(block)
    assert len(printed) == len(expected)
    for line, output in zip(printed, expected):
        if output is not None:
            assert line == output
