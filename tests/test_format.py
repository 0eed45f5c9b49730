"""The scenario format's tables against the parser and the README.

Every key that ``harness``'s tables declare is mutated, in a shipped config
that reads its block, into each invalid class the key admits: a wrong type,
a value out of range or not among its choices, a number that is not a power
of two, a non-finite number, and a misspelled sibling key.  Each mutation
must exit 1 with the key's dotted path quoted in the message.  A key is
covered as soon as it is declared.
"""
import contextlib
import copy
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entgrover import cli, harness, new_flat

ROOT = Path(__file__).resolve().parent.parent


def shipped(name):
    return json.loads((ROOT / "scripts" / "configs" / f"{name}.json").read_text())


# (block, form, its table, a shipped config that reads the block in that form)
BLOCKS = [
    *(("", kind, keys, shipped(name)) for kind, keys, name in (
        ("find", harness.KEYS["find"], "find_random"),
        ("count", harness.KEYS["count"], "count_flat"),
        ("verify", harness.KEYS["verify"], "verify_default"),
        ("sweep", harness.KEYS["sweep"], "sweep_small"),
    )),
    ("tolerances", "", harness._TOLERANCES, shipped("find_flat")),
    ("grid", "", harness._GRID, shipped("sweep_small")),
    ("verify", "", harness._VERIFY, shipped("verify_default")),
    ("state", "flat", harness._STATE["flat"], shipped("find_flat")),
    ("state", "random", harness._STATE["random"], shipped("find_random")),
    ("state", "file", harness._STATE["file"],
     dict(shipped("find_flat"), state={"type": "file", "path": "state.json"})),
    ("state", "sweep flat", harness._SWEEP_STATE["flat"],
     dict(shipped("sweep_small"), state={"type": "flat"})),
    ("state", "sweep random", harness._SWEEP_STATE["random"],
     dict(shipped("sweep_small"), state={"type": "random", "var_b": 0.05})),
    ("good", "indices", harness._GOOD["indices"], shipped("find_flat")),
    ("good", "t", harness._GOOD["t"], shipped("find_random")),
]


def invalid_classes(key):
    """(class, strategy of values in it) for each invalid class ``key`` admits."""
    many = key.min_len is not None

    def entries(values):
        return values.map(lambda v: [v]) if many else values

    numeric = key.type in (float, complex)
    out = []
    if key.type is str:
        out.append(("a number", entries(st.integers())))
    else:
        out.append(("a string", entries(st.text(max_size=5))))
    if key.type is int:
        out.append(("a bool", entries(st.booleans())))
    if key.type is bool:
        out.append(("a number", st.integers()))
    if many:
        out.append(("a dict", st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)))
    if key.min_len:
        out.append(("too short", st.just([])))
    if key.lo is not None:
        out.append(("below", entries(
            st.integers(key.lo - 1000, key.lo - 1) if key.type is int
            else st.floats(max_value=key.lo, exclude_max=True, allow_infinity=False))))
    if key.hi is not None:
        out.append(("above", entries(
            st.integers(key.hi + 1, key.hi + 1000) if key.type is int
            else st.floats(min_value=key.hi, exclude_min=True, allow_infinity=False))))
    if key.choices:
        other = st.text(max_size=5) if key.type is str else st.integers()
        out.append(("not a choice", other.filter(lambda v: v not in key.choices)))
    if key.pow2:
        out.append(("not a power of two", entries(
            st.integers(key.lo, 1 << 40).filter(lambda v: v & (v - 1)))))
    if numeric:
        out.append(("non-finite", entries(st.sampled_from([math.inf, -math.inf, math.nan]))))
    return out


CASES = [
    pytest.param(block, name, key, carrier,
                 id=f"{block}({form}).{name}" if block else f"{form}.{name}")
    for block, form, keys, carrier in BLOCKS
    for name, key in keys.items()
]


def run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("format")
    (root / "state.json").write_text(json.dumps(new_flat(2, 1).to_json_obj()))
    return root


@pytest.mark.parametrize("block, name, key, carrier", CASES)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_invalid_value_exits_1_naming_its_key(work, data, block, name, key, carrier):
    for cls, values in [*invalid_classes(key), ("misspelled", None)]:
        scenario = copy.deepcopy(carrier)
        if scenario.get("state", {}).get("type") == "file":  # a state file in ``work``
            scenario["state"]["path"] = str(work / "state.json")
        target = scenario.setdefault(block, {}) if block else scenario
        if values is None:  # a sibling key: the last letter's case swapped
            bad = name[:-1] + name[-1].swapcase()
            target[bad] = 1
        else:
            bad = name
            target[name] = data.draw(values)
        path = f"{block}.{bad}" if block else bad
        cfg = work / "c.json"
        cfg.write_text(json.dumps(scenario))
        code, err = run_cli([carrier["kind"], "--config", str(cfg), "--out", str(work / "r")])
        assert code == 1 and (f"'{path}'" in err or f"'{path}[" in err), (cls, err)


def declared_paths():
    return {f"{block}.{name}" if block else name
            for block, _, keys, _ in BLOCKS for name in keys}


def readme_paths():
    """The dotted path of every key in README's scenario block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("**Scenario**", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    paths, names, depth = set(), {}, 0
    for token in re.finditer(r'"(\w+)"\s*:|[{}]', block):
        if token.group() in "{}":
            depth += 1 if token.group() == "{" else -1
        else:
            names[depth] = token.group(1)
            paths.add(".".join(names[d] for d in range(1, depth + 1)))
    return paths


def test_readme_documents_every_declared_key_and_no_other():
    declared, documented = declared_paths(), readme_paths()
    assert sorted(declared - documented) == [] and sorted(documented - declared) == []
