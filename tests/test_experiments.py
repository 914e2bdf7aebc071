import csv
import io
import json
import sys
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from oracles import run_table_oracle
from tailshift import experiments, tail_core, variates
from tailshift.experiments import (
    SimulationSpec,
    TABLE_IDS,
    results_to_csv,
    results_to_report,
    run_table,
    spec_fingerprint,
    sweep,
    table_specs,
)
from tailshift.ar_fit import FIT_METHODS, DegenerateDataError
from tailshift.variates import BurrParams, ChangeSpec, ModelSpec, TDistParams, replication_rng, simulate

T3 = TDistParams(3.0)
SMALL = SimulationSpec(
    model=ModelSpec("iid", BurrParams.from_alpha(2.0, -2.0)),
    n=60,
    k_grid=(5, 10),
    replications=8,
    seed=4,
)


def csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# reference empirical sizes of the indicator statistic, i.i.d. case, n=1000
SIZE_TABLE_N1000 = {
    (2.0, -2.0): (0.035, 0.040, 0.035, 0.037, 0.035, 0.037, 0.033, 0.032, 0.034, 0.033),
    (2.0, -0.5): (0.030, 0.041, 0.039, 0.035, 0.038, 0.035, 0.037, 0.036, 0.032, 0.031),
    (1.0, -2.0): (0.035, 0.040, 0.037, 0.041, 0.036, 0.033, 0.033, 0.033, 0.031, 0.028),
    (1.0, -0.5): (0.030, 0.036, 0.038, 0.038, 0.037, 0.036, 0.034, 0.029, 0.031, 0.032),
}


# ---------------------------------------------------------------------------
# mechanics
# ---------------------------------------------------------------------------

def test_run_table_deterministic():
    a = run_table(SMALL)
    b = run_table(SMALL)
    assert a == b


def test_single_replication_rate_is_binary():
    spec = SimulationSpec(
        model=ModelSpec("iid", BurrParams.from_alpha(2.0, -2.0)),
        n=100,
        k_grid=(10,),
        replications=1,
        seed=11,
    )
    first = run_table(spec)
    assert first.rows[0].rejection_rate in (0.0, 1.0)
    assert run_table(spec) == first


def test_spec_rejects_a_model_or_change_of_the_wrong_type():
    with pytest.raises(TypeError, match="^model must be a ModelSpec, got str"):
        SimulationSpec(model="iid", n=100, k_grid=(10,))
    with pytest.raises(TypeError, match="^change must be a ChangeSpec or None, got TDistParams"):
        SimulationSpec(model=ModelSpec("iid", T3), n=100, k_grid=(10,), change=T3)


def test_spec_validation():
    model = ModelSpec("iid", T3)
    with pytest.raises(ValueError):
        SimulationSpec(model=model, n=100, k_grid=())
    with pytest.raises(ValueError):
        SimulationSpec(model=model, n=100, k_grid=(99,))  # k > n - 2
    with pytest.raises(ValueError):
        SimulationSpec(model=model, n=100, k_grid=(10,), replications=0)
    with pytest.raises(ValueError):
        SimulationSpec(model=model, n=100, k_grid=(10,), test="bootstrap")
    ar = dict(model=model, n=100, k_grid=(10,), test="ar_residual")
    with pytest.raises(ValueError, match="ar_order must be at least 1"):
        SimulationSpec(**ar, ar_order=0)
    for order in (1.5, True):
        with pytest.raises(TypeError, match="ar_order must be an integer"):
            SimulationSpec(**ar, ar_order=order)
    with pytest.raises(ValueError, match="ar_method must be one of"):
        SimulationSpec(**ar, ar_method="bogus")
    assert type(SimulationSpec(**ar, ar_order=np.int64(2)).ar_order) is int
    base = dict(model=model, n=100, k_grid=(10,))
    for name, value in (("n", 100.5), ("replications", 2.5), ("replications", True), ("seed", 1.5)):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            SimulationSpec(**{**base, name: value})
    spec = SimulationSpec(**{**base, "n": np.int64(100), "replications": np.int64(3), "seed": np.int64(4)})
    assert [type(value) for value in (spec.n, spec.replications, spec.seed)] == [int, int, int]
    for seed in (-1, np.int64(-5)):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimulationSpec(**{**base, "seed": seed})
    with pytest.raises(ValueError, match="seed must be non-negative"):
        table_specs(2, replications=1, seed=-1)
    assert SimulationSpec(**{**base, "seed": 0}).seed == 0


def test_spec_rejects_a_label_with_a_carriage_return():
    # csv.writer leaves a bare "\r" unquoted before Python 3.13, and csv.reader then rejects the row
    with pytest.raises(ValueError, match=r"^label must not hold a carriage return, got 'size\\rb'$"):
        replace(SMALL, label="size\rb")


def test_spec_rejects_a_label_that_is_not_a_str():
    for label, kind in ((None, "NoneType"), (5, "int"), (b"size", "bytes")):
        with pytest.raises(TypeError, match=f"^label must be a str, got {kind}$"):
            replace(SMALL, label=label)


def test_mse_present_iff_change():
    no_change = run_table(SMALL)
    assert all(cell.mse_tau is None for cell in no_change.rows)
    with_change = run_table(
        SimulationSpec(
            model=ModelSpec("iid", T3),
            n=60,
            k_grid=(5,),
            replications=4,
            seed=2,
            change=ChangeSpec(0.5, T3, TDistParams(1.0)),
        )
    )
    assert with_change.rows[0].mse_tau is not None
    assert 0.0 <= with_change.rows[0].mse_tau <= 1.0


def test_replication_errors_are_counted_not_raised(monkeypatch):
    # 20 residuals and k = 19 violates the n >= k + 2 test guard every time
    spec = SimulationSpec(
        model=ModelSpec("ar1", T3, coef=0.5),
        n=21,
        k_grid=(19, 5),
        test="ar_residual",
        replications=6,
        seed=3,
    )
    result = run_table(spec)
    bad, good = result.rows
    assert bad.error_count == 6
    assert bad.rejection_rate == 0.0
    assert np.isnan(bad.mean_alpha_hat)
    assert good.error_count == 0
    # only the first 8 values of each path are non-zero: X_(9) = 0 at k = 8, and X_(10) = 0 as well at k = 10
    real_rows = experiments._simulate_rows

    def sparse(*args):
        paths = real_rows(*args)
        paths[:, 8:] = 0.0
        return paths

    monkeypatch.setattr(experiments, "_simulate_rows", sparse)
    spec = SimulationSpec(model=ModelSpec("iid", T3), n=60, k_grid=(5, 8, 10), replications=4, seed=3)
    assert [cell.error_count for cell in run_table(spec).rows] == [0, 4, 4]


@pytest.mark.parametrize("specs, position, kind", [
    pytest.param([1], 0, "int", id="int"),
    pytest.param([SMALL, "spec"], 1, "str", id="str-second"),
    pytest.param([SMALL, SMALL, None], 2, "NoneType", id="none-last"),
])
def test_sweep_rejects_a_non_spec_before_running_any(specs, position, kind, monkeypatch):
    ran = []
    monkeypatch.setattr(experiments, "run_table", ran.append)
    with pytest.raises(TypeError, match=rf"^specs\[{position}\] must be a SimulationSpec, got {kind}$"):
        sweep(specs)
    assert ran == []


def test_sweep_isolates_failing_specs(monkeypatch):
    with pytest.raises(TypeError, match="^innovation must be a BurrParams or TDistParams"):
        ModelSpec("iid", "not-params")
    failing = replace(SMALL, n=61, label="failing")
    real_simulate = experiments._simulate_rows

    def simulate_rows(model, n, *rest):
        if n == failing.n:
            raise RuntimeError("draw failed, on purpose")
        return real_simulate(model, n, *rest)

    monkeypatch.setattr(experiments, "_simulate_rows", simulate_rows)
    results = sweep([SMALL, failing, SMALL])
    assert results[0].error is None
    assert results[1].error == "draw failed, on purpose" and results[1].rows == ()
    assert results[2] == results[0]
    with pytest.raises(ValueError):
        sweep([])
    # both renderers report the failed spec in its place
    rows = csv_rows(results_to_csv(results))
    assert rows[1 + len(SMALL.k_grid)] == [
        spec_fingerprint(failing), "", "", "", "", str(failing.replications), "ERROR: draw failed, on purpose"]
    report = json.loads(results_to_report(results))["results"]
    assert [entry["error"] for entry in report] == [None, "draw failed, on purpose", None]
    assert report[1]["rows"] == [] and report[1]["spec"]["label"] == "failing"


BLOCK_SPECS = [
    SimulationSpec(model=ModelSpec("ma1", TDistParams(2.0), coef=0.5), n=200, k_grid=(5, 20, 60),
                   phi="log_excess", adjust="lag1", change=ChangeSpec(0.3, T3, TDistParams(1.0)), seed=5),
    SimulationSpec(model=ModelSpec("ar1", T3, coef=0.5), n=120, k_grid=(4, 30), test="ar_residual", seed=6),
    # integer-rounded draws: ties at the top give the rows of a block different column counts
    SimulationSpec(model=ModelSpec("iid", BurrParams(lam=0.5, gamma=-4.0)), n=40, k_grid=(3, 10, 30),
                   phi="log_excess", seed=7),
]


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda spec: spec.model.kind)
def test_run_table_equals_the_per_replication_loop(spec, monkeypatch):
    block = experiments._BLOCK
    if spec.model.kind == "iid":
        real_rows, real_simulate = experiments._simulate_rows, simulate
        monkeypatch.setattr(experiments, "_simulate_rows", lambda *args: np.round(real_rows(*args)))
        monkeypatch.setattr("oracles.simulate", lambda *args: np.round(real_simulate(*args)))
    for replications in (block + 7, 2 * block):
        spec = replace(spec, replications=replications)
        got, want = run_table(spec), run_table_oracle(spec)
        assert results_to_csv([got]) == results_to_csv([want])
        assert results_to_report([got]) == results_to_report([want])


def test_singular_fits_drop_out_of_their_block(monkeypatch):
    # replications 3 and 10 are zero, so their OLS fits are singular mid-block;
    # the last 7 fill a block alone and are all zero
    block = experiments._BLOCK
    spec = replace(BLOCK_SPECS[1], replications=block + 7)
    singular = {3, 10, *range(block, block + 7)}
    first_values = {simulate(spec.model, spec.n, replication_rng(spec.seed, r))[0] for r in singular}
    real_rows, real_simulate = experiments._simulate_rows, simulate

    def zeroed(paths):
        paths[np.isin(paths[:, 0], list(first_values))] = 0.0
        return paths

    monkeypatch.setattr(experiments, "_simulate_rows", lambda *args: zeroed(real_rows(*args)))
    monkeypatch.setattr("oracles.simulate", lambda *args: zeroed(real_simulate(*args)[None])[0])
    got = run_table(spec)
    assert [cell.error_count for cell in got.rows] == [len(singular)] * 2
    assert results_to_csv([got]) == results_to_csv([run_table_oracle(spec)])


def nan_aware(result):
    """The result's cells as tuples, NaN as None, so that equal results compare equal."""
    return [tuple(None if isinstance(v, float) and v != v else v for v in astuple(cell)) for cell in result.rows]


@pytest.mark.parametrize("table_id", [2, 5, 8, 9])
def test_run_table_is_the_same_for_every_worker_count(table_id, monkeypatch):
    # 70 workers is more than a block has rows: each row is then a run of its own
    spec = table_specs(table_id, seed=11)[0]
    real_rows = experiments._simulate_rows
    if spec.test == "ar_residual":  # replications 40 and 100 are zero: unfit rows in the second run of a block
        first_values = {simulate(spec.model, spec.n, replication_rng(spec.seed, r), spec.change)[0] for r in (40, 100)}

        def zeroed(*args):
            paths = real_rows(*args)
            paths[np.isin(paths[:, 0], list(first_values))] = 0.0
            return paths

        monkeypatch.setattr(experiments, "_simulate_rows", zeroed)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so runs interleave
    try:
        for replications in (1, 7, 65, 130):
            spec = replace(spec, replications=replications)
            results = []
            for workers in (1, 2, 3, 70):
                monkeypatch.setattr(variates, "_worker_count", lambda: workers)
                results.append(nan_aware(run_table(spec)))
            assert results[1:] == results[:1] * 3
            if spec.test == "ar_residual" and replications > 40:
                assert all(cell[-1] >= 1 + (replications > 100) for cell in results[0])  # the error counts
    finally:
        sys.setswitchinterval(interval)


def test_the_direct_block_path_makes_no_blas_call(monkeypatch):
    def blas(*args, **kwargs):
        raise AssertionError("BLAS call")

    for name in ("vdot", "dot", "matmul", "inner"):
        monkeypatch.setattr(np, name, blas)
    spec = replace(table_specs(5, seed=2)[0], replications=70)
    assert run_table(spec).rows
    x = replication_rng(2, 0).standard_t(3.0, 1000)
    assert tail_core._finite_rows(x[None])[0] is not None
    assert tail_core._finite_rows(np.stack([x, -x])).shape == (2, 1000)


def test_fits_whose_moments_overflow_are_counted_under_both_methods():
    # Burr innovations with lam = 0.02 reach ~1e200: rows whose second moments
    # overflow have no fit and are counted, under either method, without a warning
    spec = SimulationSpec(
        model=ModelSpec("ar1", BurrParams(lam=0.02, gamma=-1.0), coef=0.5), n=200, k_grid=(5, 20),
        test="ar_residual", replications=64, seed=1,
    )
    for method in FIT_METHODS:
        (result,) = sweep([replace(spec, ar_method=method)])
        assert result.error is None
        assert all(0 < cell.error_count < spec.replications for cell in result.rows)


def test_non_finite_paths_name_the_index_in_their_series():
    # lam = 0.001 overflows at once; at lam = 0.005 replication 3 is the first
    # to overflow, at index 1 of its series; the text does not depend on the
    # warning filter
    burr = dict(n=60, k_grid=(5, 10), replications=100, seed=3)
    specs = [SimulationSpec(model=ModelSpec("iid", BurrParams(lam=0.001)), **burr),
             SimulationSpec(model=ModelSpec("iid", BurrParams(lam=0.005)), **dict(burr, n=6, k_grid=(1, 2)))]
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            errors = [result.error for result in sweep(specs)]
        assert errors == [
            "iid path of BurrParams(lam=0.001, beta=1.0, gamma=-1.0) is not finite: "
            "series contains a non-finite value at index 0 (inf)",
            "iid path of BurrParams(lam=0.005, beta=1.0, gamma=-1.0) is not finite: "
            "series contains a non-finite value at index 1 (inf)",
        ]


def test_sweep_identical_specs_identical_results():
    res = sweep([SMALL, SMALL])
    assert res[0] == res[1]


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def test_csv_layout():
    results = sweep([SMALL])
    text = results_to_csv(results)
    assert text.splitlines()[0] == "spec,k,rejection_rate,mse_tau,mean_alpha_hat,replications,error_count"
    rows = csv_rows(text)
    assert len(rows) == 1 + len(SMALL.k_grid)
    fields = rows[1]
    assert fields[0] == spec_fingerprint(SMALL)
    assert int(fields[1]) == 5
    assert 0.0 <= float(fields[2]) <= 1.0
    assert fields[3] == ""  # no change injected
    assert float(fields[4]) > 0.0  # plain decimal, parseable
    assert int(fields[5]) == SMALL.replications


def test_csv_mse_column_is_plain_decimal():
    spec = SimulationSpec(
        model=ModelSpec("iid", T3),
        n=60,
        k_grid=(5,),
        replications=4,
        seed=2,
        change=ChangeSpec(0.5, T3, TDistParams(1.0)),
    )
    text = results_to_csv(sweep([spec]))
    fields = csv_rows(text)[1]
    assert "np." not in text
    assert 0.0 <= float(fields[3]) <= 1.0



def test_csv_quotes_a_label_with_a_comma_a_quote_and_a_newline():
    spec = replace(SMALL, label='odd, "quoted"\nlabel')
    results = sweep([spec])
    rows = csv_rows(results_to_csv(results))
    assert rows[1:] == [[spec_fingerprint(spec), str(cell.k), repr(cell.rejection_rate), "",
                         repr(cell.mean_alpha_hat), str(spec.replications), str(cell.error_count)]
                        for cell in results[0].rows]
    assert rows[1][0].startswith('odd, "quoted"\nlabel/')

def test_report_json_round_trip():
    report = json.loads(results_to_report(sweep([SMALL])))
    entry = report["results"][0]
    assert entry["spec"]["n"] == 60
    assert entry["spec"]["k_grid"] == [5, 10]
    assert len(entry["rows"]) == 2
    assert entry["error"] is None


# ---------------------------------------------------------------------------
# benchmark grids
# ---------------------------------------------------------------------------

def test_table_specs_structure():
    specs = table_specs(2, replications=7, seed=5)
    assert len(specs) == 4
    assert all(s.n == 1000 and len(s.k_grid) == 10 and s.replications == 7 for s in specs)
    assert len({s.seed for s in specs}) == 4  # independent streams per row
    large = table_specs(2, replications=7, seed=5, include_large=True)
    assert len(large) == 8
    assert {s.n for s in large} == {1000, 3000}
    with pytest.raises(ValueError, match="^table_id must be in 2..10, got 99$"):
        table_specs(99)
    defaults = table_specs(2)  # 2000 replications, seeds 0, 1, ... in order
    assert [(s.replications, s.seed) for s in defaults] == [(2000, i) for i in range(4)]
    for table_id in (5.0, True):  # an integer argument, like every other
        with pytest.raises(TypeError, match="table_id must be an integer"):
            table_specs(table_id)
    assert table_specs(np.int64(5), replications=1) == table_specs(5, replications=1)
    for table_id in TABLE_IDS:  # the default grid is the n = 1000 prefix of the --full one, which alone is pinned
        full = table_specs(table_id, include_large=True)
        half = len(full) // 2
        assert full and [s.n for s in full] == [1000] * half + [3000] * half
        assert table_specs(table_id) == full[:half]


def test_table_8_and_10_share_the_power_design():
    power = table_specs(8, replications=3, seed=1)
    mse = table_specs(10, replications=3, seed=1)
    assert [s.change.tau for s in power] == [s.change.tau for s in mse] == [0.25, 0.5, 0.75]
    assert all(s.test == "ar_residual" for s in table_specs(9, replications=3))


def test_iid_size_grid_brackets_reference_values():
    # 2000 replications give +/- 0.015 of slack (3 binomial SEs at p ~ 0.04).
    # Cells with k = 10 are excluded: the reference k = 10 sizes track a
    # variant that thresholds at the (k+1)-th order statistic (they drop to
    # ~0.02 under the statistic as defined here); see the k=10 test below.
    results = sweep(table_specs(2, replications=2000, seed=0))
    for result in results:
        innovation = result.spec.model.innovation
        reference_row = SIZE_TABLE_N1000[(innovation.alpha, innovation.gamma)]
        for cell, reference in zip(result.rows, reference_row):
            if cell.k == 10:
                continue
            assert abs(cell.rejection_rate - reference) <= 0.015, (
                f"{result.spec.label} k={cell.k}: {cell.rejection_rate} vs {reference}"
            )
            assert cell.error_count == 0


def test_iid_size_at_smallest_k_is_conservative():
    # the as-defined statistic is slightly conservative at k = 10; rates stay
    # below the nominal level and above 1%
    results = sweep(table_specs(2, replications=400, seed=14))
    for result in results:
        cell = result.rows[0]
        assert cell.k == 10
        assert 0.005 <= cell.rejection_rate <= 0.05


def test_power_grows_with_sample_size_at_matched_fraction():
    change = ChangeSpec(0.5, T3, TDistParams(1.0))
    small = run_table(SimulationSpec(
        model=ModelSpec("ma1", T3, coef=0.5), n=1000, k_grid=(50,), adjust="lag1",
        change=change, replications=400, seed=77,
    ))
    large = run_table(SimulationSpec(
        model=ModelSpec("ma1", T3, coef=0.5), n=3000, k_grid=(150,), adjust="lag1",
        change=change, replications=400, seed=78,
    ))
    assert large.rows[0].rejection_rate >= small.rows[0].rejection_rate
    assert large.rows[0].rejection_rate >= 0.99


def test_mid_sample_change_is_easiest_to_locate():
    k_grid = tuple(range(30, 101, 10))
    mid = run_table(SimulationSpec(
        model=ModelSpec("ma1", T3, coef=0.5), n=1000, k_grid=k_grid, adjust="lag1",
        change=ChangeSpec(0.5, T3, TDistParams(1.0)), replications=300, seed=81,
    ))
    early = run_table(SimulationSpec(
        model=ModelSpec("ma1", T3, coef=0.5), n=1000, k_grid=k_grid, adjust="lag1",
        change=ChangeSpec(0.25, T3, TDistParams(1.0)), replications=300, seed=81,
    ))
    for cell_mid, cell_early in zip(mid.rows, early.rows):
        assert cell_mid.mse_tau <= cell_early.mse_tau


AR_SPEC = SimulationSpec(
    model=ModelSpec("ar1", T3, coef=0.5), n=60, k_grid=(5, 10), test="ar_residual",
    replications=3, seed=8,
)


def test_only_documented_degeneracies_are_counted(monkeypatch):
    import tailshift.experiments as experiments
    from tailshift.ar_fit import DegenerateDataError

    def singular(x, *args):
        errors = {i: DegenerateDataError("singular design") for i in range(len(x))}
        return np.full((len(x), 1), np.nan), np.full((len(x), x.shape[1] - 1), np.nan), errors

    monkeypatch.setattr(experiments, "_fit_rows", singular)
    assert [cell.error_count for cell in run_table(AR_SPEC).rows] == [3, 3]

    def broken(*args):
        raise ValueError("not a degeneracy")

    monkeypatch.setattr(experiments, "_fit_rows", broken)
    with pytest.raises(ValueError, match="not a degeneracy"):
        run_table(AR_SPEC)
    results = sweep([SMALL, AR_SPEC])
    assert results[0].error is None
    assert results[1].error == "not a degeneracy" and results[1].rows == ()


def test_spec_validates_residual_length_and_integer_k():
    model = ModelSpec("ar1", T3, coef=0.5)
    with pytest.raises(ValueError, match="ar_order"):
        SimulationSpec(model=model, n=5, k_grid=(1,), test="ar_residual", ar_order=4)
    SimulationSpec(model=model, n=6, k_grid=(1,), test="ar_residual", ar_order=4)
    for k in (10.5, 10.0, True):
        with pytest.raises(TypeError):
            SimulationSpec(model=model, n=100, k_grid=(5, k))
    spec = SimulationSpec(model=model, n=100, k_grid=[np.int64(5), np.int32(10)])
    assert spec.k_grid == (5, 10) and all(type(k) is int for k in spec.k_grid)
    # the AR fields are checked for a direct spec too, and never reach the report unchecked
    for fields, message in ((dict(n=5, k_grid=(1,), ar_order=4), "need n >= ar_order \\+ 2"),
                            (dict(ar_method="bogus"), "ar_method must be one of"),
                            (dict(ar_order=0), "ar_order must be at least 1")):
        with pytest.raises(ValueError, match=message):
            replace(SMALL, **fields)
    spec = replace(SMALL, ar_order=np.int64(2))
    assert type(spec.ar_order) is int
    assert json.loads(results_to_report([run_table(spec)]))["results"][0]["spec"]["ar_order"] == 2
