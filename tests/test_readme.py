"""README.md against the command line it documents.

Each subcommand's options, and every choice of those that take one,
appear in its README section; the "Command
line" section names no option that does not exist; its exit-code table
lists the codes ``cli.main`` returns; and every README heading an option's
help cites exists.
"""

import argparse
import pathlib
import re

import pytest

from hdwhite import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
# An option as README writes it: --name, not the tail of a longer word.
OPTION = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")

PARSER = cli.build_parser()
(_SUBPARSERS,) = [a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)]
SUBCOMMANDS = _SUBPARSERS.choices


def options(parser):
    """The long options of ``parser`` itself, --help aside."""
    return {
        flag for action in parser._actions for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }


def section(pick):
    """The text under the first README heading whose title satisfies
    ``pick``, subsections included, or None when no heading does.
    Lines inside code fences are never headings."""
    lines, level, fenced = None, None, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        heading = None if fenced else re.match(r"(#{1,6}) (.+)", line)
        if heading and lines is not None and len(heading.group(1)) <= level:
            break
        if lines is not None:
            lines.append(line)
        elif heading and pick(heading.group(2).strip()):
            level, lines = len(heading.group(1)), []
    return None if lines is None else "\n".join(lines)


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_option_appears_in_its_section(name):
    text = section(lambda title: f"`hdwhite {name}`" in title)
    assert text is not None, f"README has no section headed `hdwhite {name}`"
    missing = sorted(options(SUBCOMMANDS[name]) - set(OPTION.findall(text)))
    assert not missing, f"README's `hdwhite {name}` section omits {', '.join(missing)}"


def code_words(text):
    """The words of ``text``'s code, inline spans and fenced lines (up to a
    "#" comment) alike, split at whitespace, "|" and ",": `--format
    json|csv` gives --format, json and csv."""
    fenced, spans = False, []
    for line in text.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            spans.append(line.split("#", 1)[0])
        else:
            spans += re.findall(r"`([^`]+)`", line)
    return {word for span in spans for word in re.split(r"[\s|,]+", span) if word}


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_every_choice_appears_in_its_section(name):
    text = section(lambda title: f"`hdwhite {name}`" in title) or ""
    words = code_words(text)
    missing = sorted(
        f"{action.option_strings[0]} {choice}"
        for action in SUBCOMMANDS[name]._actions if action.choices
        for choice in action.choices if choice not in words
    )
    assert not missing, f"README's `hdwhite {name}` section omits {', '.join(missing)}"


def test_command_line_section_names_only_real_options():
    text = section(lambda title: title == "Command line")
    assert text is not None, "README has no Command line section"
    known = options(PARSER).union(*map(options, SUBCOMMANDS.values()))
    unknown = sorted(set(OPTION.findall(text)) - known)
    assert not unknown, f"README names options no subcommand has: {', '.join(unknown)}"


def exit_codes():
    text = section(lambda title: title == "Exit codes")
    return None if text is None else {int(c) for c in re.findall(r"^\| (\d+) \|", text, re.M)}


def test_exit_code_table_lists_every_code():
    assert exit_codes() == {0, 2, 3, 4}


# A 4 x 2 panel; its NaN twin fails to parse.
PANEL = "1.0,2.0\n3.0,4.5\n5.0,6.0\n7.5,8.0\n"


@pytest.mark.parametrize("code, text, lags", [
    pytest.param(2, PANEL, "0", id="bad-K"),
    pytest.param(3, PANEL.replace("6.0", "nan"), "1", id="csv-with-nan"),
    pytest.param(4, None, "1", id="missing-file"),
])
def test_main_returns_the_tables_code(code, text, lags, tmp_path, capsys):
    path = tmp_path / "panel.csv"
    if text is not None:
        path.write_text(text)
    assert code in (exit_codes() or ())
    assert cli.main(["test", "--input", str(path), "--K", lags]) == code
    assert capsys.readouterr().err.startswith("error: ")


def test_every_readme_heading_a_help_cites_exists():
    helps = [
        action.help for parser in SUBCOMMANDS.values() for action in parser._actions
        if action.help
    ]
    cited = [title for text in helps for title in re.findall(r"\(README, ([^)]+)\)", text)]
    assert "Input conventions" in cited  # --center's help
    for title in cited:
        found = section(lambda heading: heading == title)
        assert found is not None, f"no README heading {title!r}"
