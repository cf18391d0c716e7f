import re
import shlex
from pathlib import Path

import pytest

from wprelay import cli
from wprelay.channel import SystemParams

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    tau, rate = (float(x) for x in capsys.readouterr().out.split())
    assert 0.0 < tau < 1.0 and rate > 0.0


def test_readme_config_block_is_the_default_scenario(tmp_path):
    section = README.read_text().split("## CLI usage", 1)[1]
    cfg = tmp_path / "default.cfg"
    cfg.write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    # from_config rejects an unknown or repeated key, so ten lines name every field
    assert len(cfg.read_text().splitlines()) == 10
    assert SystemParams.from_config(cfg) == SystemParams()


def _cli_commands():
    """Each wprelay command of the CLI usage block, as argv after the
    program name: continuations joined, comments dropped."""
    section = README.read_text().split("## CLI usage", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in commands if argv and argv[0] == "wprelay"]


def test_readme_cli_commands_parse(monkeypatch):
    # main's own argument handling, stopped where it would read the config
    class Parsed(Exception):
        pass

    def parsed(config=None):
        raise Parsed

    monkeypatch.setattr(cli, "default_params", parsed)
    commands = _cli_commands()
    assert len(commands) == 6
    for argv in commands:
        with pytest.raises(Parsed):
            cli.main(argv)
