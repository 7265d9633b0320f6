"""The report writer `cli._dumps` against the standard library's layout.

`reference` is the conversion the reports were written with before the
writer existed; the writer must give, byte for byte, what
``json.dumps(reference(v), indent=2, sort_keys=True)`` gives.
"""

import enum
import json
import math
import shutil

import numpy as np
import pytest

from framelab import cli, lab, maps, measure, model, multiplier
from framelab.cli import EXIT_OK, _dumps, main, run


def reference(value):
    """Recursively convert reports to deterministic JSON-compatible data.

    A record (a NamedTuple) becomes the dict of its fields; properties are
    not fields.
    """
    if isinstance(value, (float, np.floating)):  # most leaves are floats
        f = float(value)
        return f if math.isfinite(f) else repr(f)
    if value is None or type(value) in (str, bool, int):
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (np.complexfloating, complex)):
        return [float(np.real(value)), float(np.imag(value))]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [reference(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): reference(v) for k, v in value.items()}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return {name: reference(v) for name, v in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return [reference(v) for v in value]
    return value


def standard(value):
    return json.dumps(reference(value), indent=2, sort_keys=True)


CONTEXT_SUITES = ["diagnose", "dual", "multiplier", "calculus", "invert",
                  "reconstruct", "orthogonality", "density", "oracle"]
CONTEXT = {"space": {"family": "periodic_unit_grid", "n": 16},
           "model": {"family": "raw_samples"}, "omega": {"family": "delta"},
           "theta": {"family": "canonical_dual"}, "suites": CONTEXT_SUITES, "seed": 1}
RUNS = {
    "delta-16": CONTEXT,
    "exponential-32": {**CONTEXT, "space": {"family": "periodic_unit_grid", "n": 32},
                       "omega": {"family": "exponential"},
                       "symbol": {"family": "reciprocal_safe", "seed": 11}},
    "discrete-12x4": {
        "omega": {"family": "discrete", "vectors": [
            [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0],
            [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1],
            [1, 1, 1, 1], [1, -1, 1, -1]]},
        "theta": {"family": "canonical_dual"}, "suites": ["calculus", "oracle"], "seed": 1},
    "quartet-sweep": {"omega": {"family": "delta"}, "quartet": {"n": [8, 16], "symbols": 2},
                      "sweep": {"kind": "weighted_delta"}, "suites": ["quartet", "sweep"],
                      "seed": 1},
}


@pytest.mark.parametrize("name", RUNS)
def test_every_suite_report_is_written_as_the_standard_library_writes_it(
        tmp_path, monkeypatch, name):
    captured = {}

    def capturing(suite, body):
        def wrapped(config, ctx, seed, out, data, failures):
            captured[suite] = data
            body(config, ctx, seed, out, data, failures)
        return wrapped

    for suite, body in dict(cli.SUITES).items():
        monkeypatch.setitem(cli.SUITES, suite, capturing(suite, body))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUNS[name]))
    assert run(config, out_dir=tmp_path / "out") == EXIT_OK
    assert set(captured) == set(RUNS[name]["suites"])
    for suite, data in captured.items():
        assert _dumps(data) == standard(data), suite


class Color(str, enum.Enum):
    RED = "red"
    QUOTED = 'say "hi"\\'


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


def _diagnostics():
    space = measure.counting(3)
    delta = maps.delta_frame(model.make_model(space, model.RawSamples()), space)
    return maps.diagnose(delta)


SUPPORT = maps.SupportRecord(index=np.int64(4), support_size=2, support_measure=0.5,
                             sup_on_support=np.float64(1.0), max_off_support=-0.0,
                             strict_subset=np.bool_(True),
                             bound_violation=(np.int64(3), 2.5, np.float32(1.0)),
                             passed=False)
RECORDS = [
    _diagnostics(),
    maps.FrameDiagnostics(*_diagnostics()[:-1]),  # at its default note
    SUPPORT,
    maps.WitnessReport(passed=False, total=True, reason="bound violated", records=(
        SUPPORT, SUPPORT._replace(index=5, bound_violation=None, passed=True))),
    lab.SweepResult(schedule=((17, 2.0), (33, np.float64(4.0)), (65, 8.0)),
                    norms=(2.0, np.float64(4.5), math.inf), fitted_growth=1.0,
                    verdict=lab.GrowthVerdict.UNBOUNDED, threshold=0.5),
]
STRINGS = ["", 'a "quoted" word', "back\\slash", "two\nlines\r\t", "\x00\x1f\x7f",
           "café ω 中 \U0001f600", "\ud800"]
SCALARS = [None, True, False, 0, -3, 2**70, 0.0, -0.0, 5e-324, 1e308, -1e308,
           math.nan, math.inf, -math.inf, 0.1, np.float32(0.1), np.float64(-2.5),
           np.float64(math.nan), np.float32(-math.inf), np.int64(-9), np.int32(4),
           np.bool_(True), np.bool_(False), complex(1.5, -0.0), np.complex64(0.25 - 3j),
           np.complex128(1e308 + 5e-324j), Color.RED, Color.QUOTED, Level.HIGH,
           maps.Classification.FRAME, lab.GrowthVerdict.BOUNDED, multiplier.Side.LEFT,
           np.arange(3), np.array([[1.5, math.nan], [math.inf, -0.0]]),
           np.array([1 + 2j, -0.0j]), np.zeros((2, 0)), *RECORDS, *STRINGS]
KEYS = [*STRINGS, 0, 1, -5, True, False, "1", "True", "k"]


def random_tree(rng, depth):
    """A seeded nested value: dicts, lists and tuples of SCALARS, empty at any depth."""
    pick = rng.integers(6) if depth else 5
    size = int(rng.integers(0, 5))
    if pick == 0:
        return {KEYS[rng.integers(len(KEYS))]: random_tree(rng, depth - 1)
                for _ in range(size)}
    if pick == 1:
        return [random_tree(rng, depth - 1) for _ in range(size)]
    if pick == 2:
        return tuple(random_tree(rng, depth - 1) for _ in range(size))
    if pick == 3:  # a container of leaves only
        return {str(i): SCALARS[rng.integers(len(SCALARS))] for i in range(size)}
    if pick == 4:
        return [] if rng.random() < 0.5 else {}
    return SCALARS[rng.integers(len(SCALARS))]


@pytest.mark.parametrize("seed", range(8))
def test_a_seeded_corpus_is_written_as_the_standard_library_writes_it(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        value = random_tree(rng, depth=4)
        assert _dumps(value) == standard(value), value


@pytest.mark.parametrize("value", SCALARS + [[], {}, (), [[]], {"a": {}}, [{}, ()],
                                   (1, "a", SUPPORT, ())])
def test_each_leaf_and_empty_container_alone_and_nested(value):
    for nested in (value, [value], {"k": [value, {"j": value}]}):
        assert _dumps(nested) == standard(nested)


def test_a_record_is_an_object_and_a_plain_tuple_a_list():
    diagnostics, default_note, support, witness, sweep = (
        json.loads(_dumps(record)) for record in RECORDS)
    assert default_note == diagnostics == {**diagnostics, "note": ""}
    assert support["bound_violation"] == [3, 2.5, 1.0]
    assert [r["index"] for r in witness["records"]] == [4, 5]
    assert sweep["schedule"] == [[17, 2.0], [33, 4.0], [65, 8.0]]
    assert (sweep["verdict"], sweep["norms"][-1]) == ("unbounded", "inf")
    assert json.loads(_dumps((1, SUPPORT, ()))) == [1, support, []]


def test_a_zero_dimensional_array_is_written_as_its_scalar():
    # stated difference: the reference iterates tolist(), a scalar here, and raises
    for value in (np.array(2.5), np.array(7), np.array(1 - 2j), np.array(math.nan)):
        with pytest.raises(TypeError):
            standard(value)
        assert _dumps(value) == _dumps(value.item())
    assert _dumps({"a": np.array(True)}) == '{\n  "a": true\n}'


def test_a_non_finite_complex_part_is_written_as_a_string():
    # stated difference: the reference writes non-standard NaN and Infinity here
    assert standard(complex(math.inf, math.nan)) == "[\n  Infinity,\n  NaN\n]"
    assert _dumps(complex(math.inf, math.nan)) == '[\n  "inf",\n  "nan"\n]'


def test_what_json_cannot_hold_is_a_type_error():
    for value in ({1, 2}, {"a": object()}, [b"bytes"]):
        with pytest.raises(TypeError):
            _dumps(value)


def test_reports_never_reach_the_pure_python_encoder(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONTEXT))
    out = tmp_path / "out"
    commands = [["run", str(config), "--out", str(out)],
                ["run", str(config), "--out", str(out), "--json"],
                ["list-families", "--json"]]

    def outputs():
        seen = []
        for args in commands:
            shutil.rmtree(out, ignore_errors=True)
            assert main(args) == EXIT_OK
            seen.append(capsys.readouterr().out)
            seen.extend((p.name, p.read_bytes()) for p in sorted(out.glob("*.json")))
        return seen

    plain = outputs()

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert outputs() == plain
    assert len(plain) == 3 + 2 * (len(CONTEXT_SUITES) + 1)
