"""The scenario key table: the README documents exactly its keys, and any
document built from them loads into a Scenario or fails with a
ConfigError, never with another exception; run end to end, it exits
with a documented code and writes a strict-JSON summary."""
import copy
import json
import math
import re
import shutil
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from complexpendulum import cli

README = Path(__file__).resolve().parents[1] / "README.md"

ROWS = [r for r in cli._KEY_TABLE if not r.key.startswith("--")]


def keys_of(section):
    return list(dict.fromkeys(r.key for r in ROWS if r.section == section))


def documented_keys():
    """(section, key) of each row of the README's key reference table."""
    text = README.read_text()
    lines = text[text.index("Full key reference") :].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = []
    for line in lines[start + 2 :]:  # skip the header and its rule
        if not line.startswith("|"):
            break
        section, key = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        table.append((section, key))
    return table


def test_readme_lists_the_key_table():
    documented = documented_keys()
    assert len(documented) == len(set(documented))
    assert set(documented) == {(r.section, r.key) for r in ROWS}


# Numbers of every YAML kind: now and then non-finite, out of range,
# malformed, or so large that cos(x) overflows.
ODD_NUMBERS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e-320, 1e300, 10**400, "nan", "1e400", "zz", "", "800i", [1.0], [1, 2, 3]]
)
NUMBERS = st.integers(0, 7).flatmap(
    lambda n: ODD_NUMBERS
    if n == 7
    else st.one_of(
        st.integers(-3, 3),
        st.floats(-10.0, 10.0, allow_subnormal=False),
        st.sampled_from(["0.2i", "pi/2+0.6i", "-i", "3pi/2+1i", "1e-3", "0.5-0.3i"]),
    )
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
PLAUSIBLE = {
    "branch": st.sampled_from(["+", "-", 1, -1, "up"]),
    "direction": st.sampled_from([1, -1, 0]),
    "turning_point": st.integers(-1, 5) | NUMBERS,
    "max_steps": st.integers(-1, 10**6),
    "closure": st.booleans(),
    "escape": st.booleans(),
    "real_form": st.booleans(),
    "directory": st.sampled_from(["out/fuzz", "", 5]),
    "name": st.text(max_size=4),
    "description": st.text(max_size=4),
    # windows stay narrow: turning_points polishes every root of the window
    # and dedupes them pairwise (a pendulum window of +-16000 takes 7 s)
    "window": st.integers(0, 3).flatmap(
        lambda n: st.lists(st.floats(-10.0, 10.0) | st.sampled_from([math.nan, math.inf, "2pi", True]), max_size=5)
        if n == 3
        else st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4).map(lambda w: sorted(w[:2]) + sorted(w[2:]))
    ),
    "analyses": st.lists(st.sampled_from([*cli._ANALYSIS_TABLE, "bogus", 3]), max_size=3),
    "pair": st.lists(st.integers(-1, 5) | NUMBERS, min_size=1, max_size=3),
}


def mostly(strategy):
    """``strategy`` about seven times in eight, junk otherwise."""
    return st.integers(0, 7).flatmap(lambda n: JUNK if n == 7 else strategy)


def mapping(section, required=()):
    """A mapping of some of ``section``'s keys, now and then with an
    unknown key."""
    values = {k: value(section, k) for k in keys_of(section)}
    clean = st.fixed_dictionaries(
        {k: values[k] for k in required},
        optional={k: v for k, v in values.items() if k not in required},
    )
    return st.integers(0, 15).flatmap(lambda n: clean.map(lambda m: {**m, "bogus": 1}) if n == 15 else clean)


def value(section, key):
    path = f"{section}.{key}" if section else key
    if path in cli._ROWS:
        return mostly(mapping(path))
    if path == "model":
        kinds = st.sampled_from([*cli._MODELS, "bogus"])
        return mostly(kinds.flatmap(lambda kind: mapping(kind).map(lambda m: {"kind": kind, **m})))
    if path == "starts":
        shapes = st.sampled_from([("x", "p"), ("x", "branch"), ("turning_point",)])
        exact = shapes.flatmap(lambda keys: st.fixed_dictionaries({k: value("starts[i]", k) for k in keys}))
        start = exact | mapping("starts[i]")
        return mostly(st.lists(start, min_size=1, max_size=3))
    return mostly(PLAUSIBLE.get(key, NUMBERS))


BUNDLED = [yaml.safe_load(f.read_text()) for f in cli._bundled_scenarios().values()]
# where a section's keys sit in a scenario document
PARENTS = {"pendulum": ["model"], "driven-pendulum": ["model"], "starts[i]": ["starts", 0]}


def with_key(doc, section, key, new):
    """A copy of ``doc`` with ``key`` of ``section`` set to ``new``."""
    doc = copy.deepcopy(doc)
    target = doc
    for part in PARENTS.get(section, section.split(".") if section else []):
        target = target.setdefault(part, {}) if isinstance(part, str) else target[part]
    target[key] = new
    return doc


# Documents drawn from the table alone seldom get past loading; bundled
# scenarios with one key redrawn reach the turning points and the starts.
REDRAWN = st.sampled_from(BUNDLED).flatmap(
    lambda doc: st.sampled_from(ROWS).flatmap(
        lambda row: (value(row.section, row.key) | ODD_NUMBERS).map(lambda new: with_key(doc, row.section, row.key, new))
    )
)
DOCUMENTS = st.integers(0, 3).flatmap(lambda n: mapping("", required=("name", "model", "starts")) if n == 3 else REDRAWN)
FLAGS = st.fixed_dictionaries(
    {},
    optional={"tol": st.floats(allow_nan=True), "horizon": st.floats(allow_nan=True), "out": st.just("out/fuzz")},
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def parsed(loader, text):
    """repr of the document ``loader`` parses from ``text`` (repr tells
    nan, -0.0 and True apart), or "raised"."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, ValueError):
        return "raised"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(doc=DOCUMENTS, flags=FLAGS)
def test_documents_load_or_fail_as_config_errors(workdir, doc, flags):
    path = workdir / "scenario.yaml"
    text = yaml.safe_dump(doc)
    path.write_text(text)
    if hasattr(yaml, "CSafeLoader"):
        assert parsed(yaml.CSafeLoader, text) == parsed(yaml.SafeLoader, text)
    try:
        scn = cli.load_scenario(path, flags)
        cli._starting_states(scn)
    except cli.ConfigError:
        pass


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.usefixtures("deadline")
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
# horizons up to 40 give runs that cross the stepper's 512-row blocks
@given(doc=DOCUMENTS, horizon=st.sampled_from([0.5, 40.0]) | st.floats(0.5, 40.0))
def test_documents_run_end_to_end(workdir, doc, horizon):
    path = workdir / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = workdir / "run"
    shutil.rmtree(out, ignore_errors=True)
    code = cli.run_scenario(path, out=str(out), horizon=horizon, quiet=True)
    assert code in (0, 2, 3)
    if code == 0:
        summary = strict_json((out / "summary.json").read_text())
        for rec in summary["trajectories"]:
            if rec["file"] is not None:
                with open(out / rec["file"]) as fh:
                    assert sum(1 for _ in fh) - 1 == rec["samples"]  # a header, then a row per sample


@pytest.mark.parametrize(
    "text",
    ["name: [fig, 2\n", "name: a: b\n", "model:\n  kind: pendulum\n\tg: 1\n", "name: \x07\n"],
    ids=["unclosed-flow", "nested-colon", "tab", "control-character"],
)
def test_malformed_documents_give_the_pure_loaders_message(tmp_path, text):
    """libyaml words its errors otherwise; the message is the pure
    loader's all the same."""
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.load(text, Loader=yaml.SafeLoader)
    with pytest.raises(cli.ConfigError) as err:
        cli.load_scenario(path)
    assert str(err.value) == f"key 'config': cannot parse {path}: {pure.value}"


def test_a_date_that_does_not_exist_is_a_config_error(tmp_path):
    path = tmp_path / "date.yaml"
    path.write_text("name: 2001-02-30\n")
    with pytest.raises(cli.ConfigError, match=f"^key 'config': cannot parse {re.escape(str(path))}: day is out of range"):
        cli.load_scenario(path)


def test_bundled_scenarios_load_without_libyaml(monkeypatch, capsys):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    pure = []
    safe_load = yaml.safe_load
    monkeypatch.setattr(yaml, "safe_load", lambda text: pure.append(text) or safe_load(text))
    names = list(cli._bundled_scenarios())
    assert len(names) == 14
    for name in names:
        assert cli.load_scenario(name).name
    assert [name for name, _ in cli.list_scenarios()] == names
    assert len(pure) == 28
