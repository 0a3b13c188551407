"""Every verify id is one entry of `cli._RUNNERS`, and the keyword-only
parameters of its runner are the flags the id reads, with their
defaults (README, Command line).  perfbench/tracer.py rebinds only
names and looks one level deep into a module-level dict, so a public
builder held in an entry, or in a runner's closure, would be called
past its span without any error.  These guards keep the table to
cli-private functions that look the builders up per call, and keep the
README's options column equal to what each runner reads."""

import pathlib
import re
import types

import qbailey
from qbailey import cli

README = pathlib.Path(qbailey.__file__).parents[2] / "README.md"


def test_table_holds_cli_private_runners():
    for identity, runner in cli._RUNNERS.items():
        assert isinstance(runner, types.FunctionType), identity
        assert runner.__module__ == "qbailey.cli" and runner.__name__.startswith("_"), identity
        # a factory's runner closes over names, never over a builder
        assert not any(callable(cell.cell_contents) for cell in runner.__closure__ or ()), \
            identity


def test_the_table_is_the_verify_choices():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    identity = next(a for a in sub.choices["verify"]._actions if a.dest == "identity")
    assert identity.choices is cli._RUNNERS


def _readme_options() -> dict[str, dict[str, str | None]]:
    """id -> {flag: documented default or None} from the verify table."""
    section = README.read_text().split("### verify", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9-]+)` \|[^|]*\| `([^`]*)` \|$", section, re.M)
    table = {}
    for identity, options in rows:
        flags, tokens = {}, options.split()
        for i, token in enumerate(tokens):
            if token.startswith("--"):
                nxt = tokens[i + 1] if i + 1 < len(tokens) else None
                flags[token[2:]] = None if nxt is None or nxt.startswith("--") else nxt
        table[identity] = flags
    return table


def test_readme_options_are_what_each_runner_reads():
    documented = _readme_options()
    assert set(documented) == set(cli._RUNNERS)
    for identity, runner in cli._RUNNERS.items():
        # a default is written out, except an empty list or a drawn seed
        assert documented[identity] == {
            flag: None if value in ("", None) else str(value)
            for flag, value in runner.__kwdefaults__.items()}, identity
