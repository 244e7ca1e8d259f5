"""Keep the README's configuration table in step with SimConfig."""

import dataclasses
from pathlib import Path

from msim import SimConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_every_config_field():
    text = README.read_text(encoding="utf-8")
    missing = [
        field.name
        for field in dataclasses.fields(SimConfig)
        if f"`{field.name}`" not in text
    ]
    assert missing == []
