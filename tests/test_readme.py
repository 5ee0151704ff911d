"""The README names every export, and its examples run: the example
document parses, and each command of the command table exits 0 on it."""

import re
from pathlib import Path

import pytest

import jetforge
from jetforge.cli import main
from jetforge.dsl import parse_document

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _example_document():
    """The first fenced block that declares a ring."""
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README, re.M | re.S)
    return next(block for block in blocks if block.startswith("ring "))


def _placeholder(word):
    return re.fullmatch("[A-Z]", word) is not None


def _optional(group):
    """An optional group, kept when its placeholders are all single capitals
    (``[--n N]``, ``[--cocycle]``), dropped otherwise (``[--suite a,b]``)."""
    words = group.group(1).split()
    return group.group(1) if all(w.startswith("--") or _placeholder(w) for w in words) else ""


def _table_commands():
    """Each command of the command table as an argument list, every
    placeholder set to 1; ``doc.jf`` stays for the caller."""
    commands = []
    for text in re.findall(r"^\| `jetforge ([^`]*)` \|", README, re.M):
        words = re.sub(r"\[([^\]]*)\]", _optional, text).split()
        commands.append(["1" if _placeholder(w) else w for w in words])
    return commands


COMMANDS = _table_commands()


def test_every_export_is_named():
    named = {word for span in re.findall(r"`([^`]*)`", README)
             for word in re.findall(r"\w+", span)}
    assert [name for name in jetforge.__all__ if name not in named] == []


def test_the_example_document_parses():
    doc = parse_document(_example_document())
    assert doc.algebra.vars == ["x", "y"]
    assert doc.module is not None and doc.morphism is not None


def test_the_table_lists_every_subcommand():
    assert [c[0] for c in COMMANDS] == ["jet", "jet2", "module", "omega", "sym", "morphism",
                                        "check", "p1"]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_each_table_command_exits_0(argv, tmp_path, capsys):
    path = tmp_path / "doc.jf"
    path.write_text(_example_document(), encoding="utf-8")
    argv = [str(path) if w == "doc.jf" else w for w in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out
