"""The shipped configs and the CLI examples of the README."""

import json
import re
import shlex
import shutil
from pathlib import Path

from caloron import cli, nahm, oracle

REPO = Path(__file__).resolve().parents[1]


def test_reference_config_is_the_reference_dataset():
    # byte for byte, so that the signed zeros of T and Q are compared too
    text = (REPO / "configs" / "su2_reference.json").read_text()
    assert text == json.dumps(nahm.to_dict(oracle.su2_reference_data()), indent=2)


def test_free_field_config_is_the_free_fixture(free_config):
    text = (REPO / "configs" / "free_field.json").read_text()
    assert json.loads(text) == free_config


def readme_commands():
    """Every `caloron ...` command of the README's CLI block, as argv."""
    readme = (REPO / "README.md").read_text()
    block = re.search(r"## CLI\s+```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("caloron ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    shutil.copytree(REPO / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "validate", "regularity", "connection", "selfdual-scan", "oracle-compare"]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    # the header and the 3^4 grid
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == 82
