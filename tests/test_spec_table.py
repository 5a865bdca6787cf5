"""Both text languages pinned: every set expression and spec in
``spec_table.json`` parses to the recorded canonical form or ``describe()``,
or is rejected by the CLI with the recorded exit code.  Models are read through
``model_text()``, their model spelling.

The table was recorded before set expressions and specs shared one parser;
it holds the unusual forms the spec grammar accepts (``const( 1/2 )``,
``const(+1/2)``, ``const(.5)``, ``scale(1_0/20; const(1))``, ``box(1e400)``)
next to malformed inputs of every production.
"""

import json
from pathlib import Path

import pytest

from unsharp.cli import parse_density_spec, parse_effect_spec, parse_model_spec, run
from unsharp.setexpr import parse_set_expr

TABLE = json.loads((Path(__file__).parent / "spec_table.json").read_text(encoding="utf-8"))

PARSE = {
    "set": lambda t: str(parse_set_expr(t)),
    "density": lambda t: parse_density_spec(t).describe(),
    "effect": lambda t: parse_effect_spec(t).describe(),
    "model": lambda t: parse_model_spec(t).model_text(),
}

# rejected inputs run through the CLI command that reads them
ARGV = {
    "set": lambda t: ["sets", f"--expr={t}"],
    "density": lambda t: ["state", "--state=point:0", f"--effect=smear((0,1);{t})"],
    "effect": lambda t: ["state", "--state=point:0", f"--effect={t}"],
    "model": lambda t: ["state", f"--state=density:{t}", "--effect=const(1)"],
}


def test_table_covers_both_languages():
    assert len(TABLE) >= 150
    assert {row["kind"] for row in TABLE} == set(PARSE)
    assert {"describe" in row for row in TABLE} == {True, False}


@pytest.mark.parametrize(
    "row", [r for r in TABLE if "describe" in r], ids=lambda r: f"{r['kind']}:{r['text']}"
)
def test_accepted_input_parses_as_recorded(row):
    assert PARSE[row["kind"]](row["text"]) == row["describe"]


@pytest.mark.parametrize(
    "row", [r for r in TABLE if "code" in r], ids=lambda r: f"{r['kind']}:{r['text']}"
)
def test_rejected_input_exit_code(row, capsys):
    assert run(ARGV[row["kind"]](row["text"])) == row["code"]
    assert capsys.readouterr().err.startswith("error: ")
