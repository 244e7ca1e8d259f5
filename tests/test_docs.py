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


def test_readme_quick_start_renames_alice_in_the_tournament(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md quick start", "exec"), namespace)
    tournament = namespace["sim"].store.latest(namespace["tournament"])
    names = {member.user_id: member.name for member in tournament.members()}
    assert names[namespace["alice"]] == "alicia"
    assert "'name': 'alicia'" in capsys.readouterr().out
