"""The record contract: every result and input record prints, compares,
hashes and refuses assignment as a frozen dataclass does, and ``replace``
builds, and so checks, a record again."""

import pytest

from fertgames import (
    AggregateReport,
    BenchmarkSolution,
    ExtendedEquilibrium,
    GameEquilibrium,
    LogNormalSpec,
    ModelParams,
    NonPositiveParameter,
    PopulationSpec,
    ReactionDecomposition,
    RegimeClassification,
    StaticsReport,
    benchmark_solve,
    build_report,
    solve_extended,
    solve_game,
)
from fertgames.cli import ScenarioConfig
from fertgames.core import Record, replace

PARAMS = dict(alpha=2.0, delta=1.0, gamma=1.0, beta=1.0, a_w=1.0, a_m=3.0)
REGIME = dict(parameter="delta", transfer_term=0.5, preference_term=1.0,
              dominant="preference", predicted_sign=-1)
SPEC = dict(count=10, seed=7, aw_dist=LogNormalSpec(0.0, 0.5),
            am_dist=LogNormalSpec(1.0, 0.5), alpha=(1.5, 3.0), delta=1.0, gamma=1.0,
            beta=1.0)

# Each record's fields by keyword, and the repr a frozen dataclass gives it.
RECORDS = {
    "ModelParams": (
        ModelParams, PARAMS,
        "ModelParams(alpha=2.0, delta=1.0, gamma=1.0, beta=1.0, a_w=1.0, a_m=3.0)"),
    "BenchmarkSolution": (
        BenchmarkSolution,
        dict(n_star=0.5, c_w=1.0, c_m=1.5, u_family=-0.25, wife_utility_delta=0.125),
        "BenchmarkSolution(n_star=0.5, c_w=1.0, c_m=1.5, u_family=-0.25, "
        "wife_utility_delta=0.125)"),
    "ReactionDecomposition": (
        ReactionDecomposition, dict(preference_effect=1.0, transfer_effect=-0.5, n=0.5),
        "ReactionDecomposition(preference_effect=1.0, transfer_effect=-0.5, n=0.5)"),
    "GameEquilibrium": (
        GameEquilibrium,
        dict(rho_star=2.0, n_star=0.5, c_w=2.0, c_m=2.0, u_w=0.25, u_m=1.75,
             wife_participates=True, husband_participates=True, interior=True),
        "GameEquilibrium(rho_star=2.0, n_star=0.5, c_w=2.0, c_m=2.0, u_w=0.25, "
        "u_m=1.75, wife_participates=True, husband_participates=True, interior=True)"),
    "ExtendedEquilibrium": (
        ExtendedEquilibrium,
        dict(positive_roots=(2.5,), selected_rho=None, n_star=0.0, c_w=1.0, c_m=3.0,
             u_w=0.0, u_m=1.0, wife_participates=True, husband_participates=True,
             interior=False),
        "ExtendedEquilibrium(positive_roots=(2.5,), selected_rho=None, n_star=0.0, "
        "c_w=1.0, c_m=3.0, u_w=0.0, u_m=1.0, wife_participates=True, "
        "husband_participates=True, interior=False)"),
    "RegimeClassification": (
        RegimeClassification, REGIME,
        "RegimeClassification(parameter='delta', transfer_term=0.5, preference_term=1.0, "
        "dominant='preference', predicted_sign=-1)"),
    "StaticsReport": (
        StaticsReport,
        dict(radicand=4.0, rho_star=2.0, n_star=0.5, partial_rho={"alpha": 1.0},
             partial_n={"alpha": 0.25}, fd_rho={"alpha": 1.0}, fd_n={"alpha": 0.25},
             delta_regime=RegimeClassification(**REGIME),
             gamma_regime=RegimeClassification("gamma", 0.5, 1.0, "preference", 1),
             ratio_partial=-0.125, ratio_fd=-0.125),
        "StaticsReport(radicand=4.0, rho_star=2.0, n_star=0.5, partial_rho={'alpha': 1.0}, "
        "partial_n={'alpha': 0.25}, fd_rho={'alpha': 1.0}, fd_n={'alpha': 0.25}, "
        "delta_regime=RegimeClassification(parameter='delta', transfer_term=0.5, "
        "preference_term=1.0, dominant='preference', predicted_sign=-1), "
        "gamma_regime=RegimeClassification(parameter='gamma', transfer_term=0.5, "
        "preference_term=1.0, dominant='preference', predicted_sign=1), "
        "ratio_partial=-0.125, ratio_fd=-0.125)"),
    "ScenarioConfig": (
        ScenarioConfig, dict(model="game", params=ModelParams(**PARAMS), subsidy=0.5),
        "ScenarioConfig(model='game', params=ModelParams(alpha=2.0, delta=1.0, gamma=1.0, "
        "beta=1.0, a_w=1.0, a_m=3.0), subsidy=0.5)"),
    "LogNormalSpec": (
        LogNormalSpec, dict(mu=0.25, sigma=0.5), "LogNormalSpec(mu=0.25, sigma=0.5)"),
    "PopulationSpec": (
        PopulationSpec, dict(SPEC, model="benchmark", subsidy=0.0),
        "PopulationSpec(count=10, seed=7, aw_dist=LogNormalSpec(mu=0.0, sigma=0.5), "
        "am_dist=LogNormalSpec(mu=1.0, sigma=0.5), alpha=(1.5, 3.0), delta=1.0, "
        "gamma=1.0, beta=1.0, model='benchmark', subsidy=0.0)"),
    "AggregateReport": (
        AggregateReport,
        dict(mean_fertility=0.5, childless_share=0.25, mean_transfer=None,
             mean_income_ratio=1.5, fertility_by_ratio_decile=(0.25, 0.75),
             decile_counts=(1, 1), notes=()),
        "AggregateReport(mean_fertility=0.5, childless_share=0.25, mean_transfer=None, "
        "mean_income_ratio=1.5, fertility_by_ratio_decile=(0.25, 0.75), "
        "decile_counts=(1, 1), notes=())"),
}

records = pytest.mark.parametrize("name", list(RECORDS))


def build(name):
    cls, fields, _ = RECORDS[name]
    return cls(**fields)


@records
def test_repr_is_the_dataclass_format(name):
    assert repr(build(name)) == RECORDS[name][2]


@records
def test_fields_in_declared_order(name):
    cls, fields, _ = RECORDS[name]
    assert cls._fields == tuple(fields)
    record = cls(*fields.values())
    assert record == build(name)
    assert [getattr(record, field) for field in cls._fields] == list(fields.values())


@records
def test_equal_records_compare_and_hash_equal(name):
    a, b = build(name), build(name)
    assert a is not b
    assert a == b
    assert not a != b
    cls, fields, _ = RECORDS[name]
    assert a != tuple(fields.values())
    if name == "StaticsReport":
        # Its partials are dicts, so it is unhashable, as its dataclass was.
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert hash(a) == hash(tuple(fields.values()))


@records
def test_equal_only_to_a_record_of_the_same_class(name):
    cls, fields, _ = RECORDS[name]
    subclass = type("Sub" + name, (cls,), {})
    assert subclass._fields == cls._fields
    record = subclass(**fields)
    assert repr(record) == "Sub" + RECORDS[name][2]
    assert record != build(name)
    assert build(name) != record


@records
def test_fields_cannot_be_assigned_or_deleted(name):
    record = build(name)
    field = record._fields[-1]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.undeclared = 1
    assert getattr(record, field) is before


@records
def test_missing_or_unknown_argument_is_a_type_error(name):
    cls, fields, _ = RECORDS[name]
    values = list(fields.values())
    with pytest.raises(TypeError):
        cls(*values[:1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(**fields, undeclared=1)
    with pytest.raises(TypeError):
        cls(values[0], **fields)


@records
def test_replace_sets_only_the_named_fields(name):
    record = build(name)
    cls, fields, _ = RECORDS[name]
    first = cls._fields[0]
    value = {"model": "extended", "parameter": "gamma"}.get(first, 2 * fields[first])
    changed = replace(record, **{first: value})
    assert changed != record
    assert changed == cls(**dict(fields, **{first: value}))
    assert record == build(name)
    assert replace(record) == record
    assert replace(record) is not record
    with pytest.raises(TypeError):
        replace(record, undeclared=1)


def test_population_spec_defaults():
    spec = PopulationSpec(**SPEC)
    assert (spec.model, spec.subsidy) == ("game", 0.0)
    assert spec == PopulationSpec(*SPEC.values(), "game", 0.0)
    assert repr(spec).endswith("beta=1.0, model='game', subsidy=0.0)")
    assert replace(spec, subsidy=0.5).subsidy == 0.5


def test_replace_checks_model_params_again():
    p = ModelParams(**PARAMS)
    with pytest.raises(NonPositiveParameter) as exc:
        replace(p, a_w=-1.0)
    assert (exc.value.field, exc.value.value) == ("a_w", -1.0)
    moved = replace(p, a_w=2.0)
    assert moved == ModelParams(**dict(PARAMS, a_w=2.0))
    assert p.a_w == 1.0


def test_solver_results_are_built_records():
    # The solvers build their results without __init__; they must equal
    # the records __init__ builds from the same fields.
    p = ModelParams(**PARAMS)
    for result in (benchmark_solve(p), solve_game(p), solve_extended(p, "high"),
                   build_report(p)):
        assert isinstance(result, Record)
        fields = {name: getattr(result, name) for name in result._fields}
        assert type(result)(**fields) == result
        assert repr(type(result)(**fields)) == repr(result)
