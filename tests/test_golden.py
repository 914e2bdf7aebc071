"""The benchmark grid designs against the committed file ``golden/table_specs.json``."""
import json

from golden.make_table_specs import PATH, REPLICATIONS, SEED, entries


def assert_same(expected, actual, path="grids"):
    """Exact equality, naming the first field that differs."""
    assert type(actual) is type(expected), f"{path}: {actual!r} is not {expected!r}"
    if isinstance(expected, dict):
        assert list(actual) == list(expected), f"{path}: keys {list(actual)} are not {list(expected)}"
        for key in expected:
            assert_same(expected[key], actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: {len(actual)} items, not {len(expected)}"
        for i, (want, got) in enumerate(zip(expected, actual)):
            assert_same(want, got, f"{path}[{i}]")
    else:
        assert actual == expected, f"{path}: {actual!r} is not {expected!r}"


def test_table_specs_match_the_golden_file():
    golden = json.loads(PATH.read_text(encoding="utf-8"))
    assert (golden["replications"], golden["seed"]) == (REPLICATIONS, SEED)
    # through JSON, so tuples compare as the lists the file holds
    assert_same(golden["grids"], json.loads(json.dumps(entries())))
