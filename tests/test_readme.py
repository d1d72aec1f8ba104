"""Every ```python block of README.md runs as written, and its ```yaml
config grammar is the harness's defaults."""
import json
import re
from pathlib import Path

import pytest
import yaml

from ncrs.harness import default_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_grammar_matches_defaults():
    section = README.read_text().split("## Config grammar", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    documented = yaml.safe_load(block)
    documented.pop("sweep")
    # JSON tells 1 from 1.0, so this compares keys, values and types
    assert json.dumps(documented, sort_keys=True) == json.dumps(default_config(), sort_keys=True)
