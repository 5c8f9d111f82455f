import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from accessim.model import (
    DemandTable,
    ScenarioError,
    ServiceKind,
    Technology,
    default_scenario,
    ensure_valid,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_default_scenario_is_valid():
    assert validate_scenario(default_scenario()) == []


def test_default_operator_table():
    ops = {net.id: net for net in default_scenario().operators}
    assert ops[1].technology is Technology.UMTS
    assert ops[1].capacity_kbps == 1700.0
    assert (ops[1].jitter_ms, ops[1].delay_ms, ops[1].ber) == (6.0, 19.0, 1e-3)
    assert (ops[1].sp, ops[1].cs) == (0.9, 0.9)
    assert ops[2].technology is Technology.WLAN
    assert ops[2].capacity_kbps == 11000.0
    assert (ops[2].jitter_ms, ops[2].delay_ms, ops[2].ber) == (10.0, 30.0, 1e-5)
    assert (ops[2].sp, ops[2].cs) == (0.1, 0.1)
    assert ops[3].capacity_kbps == 5500.0
    assert (ops[3].jitter_ms, ops[3].delay_ms, ops[3].ber) == (10.0, 45.0, 1e-5)
    assert (ops[3].sp, ops[3].cs) == (0.2, 0.2)
    assert all(net.w_u == 1.0 and net.w_op == 1.0 for net in ops.values())


def test_default_class_weights_and_requirements():
    s = default_scenario()
    assert s.qos_weights[ServiceKind.CONVERSATIONAL] == (0.05, 0.45, 0.45, 0.05)
    assert s.qos_weights[ServiceKind.INTERACTIVE] == (0.16, 0.04, 0.16, 0.64)
    rt = s.requirements[ServiceKind.CONVERSATIONAL]
    nrt = s.requirements[ServiceKind.INTERACTIVE]
    assert (rt.jitter_req, rt.delay_req, rt.ber_req) == (10.0, 100.0, 1e-3)
    assert (nrt.jitter_req, nrt.delay_req, nrt.ber_req) == (20.0, 150.0, 1e-5)


def test_default_demand_and_mix():
    s = default_scenario()
    assert s.demand.rate(ServiceKind.CONVERSATIONAL, Technology.UMTS) == 256.0
    assert s.demand.rate(ServiceKind.CONVERSATIONAL, Technology.WLAN) == 256.0
    assert s.demand.rate(ServiceKind.INTERACTIVE, Technology.UMTS) == 512.0
    assert s.demand.rate(ServiceKind.INTERACTIVE, Technology.WLAN) == 1024.0
    assert len(s.profile_mix) == 4
    assert sum(p.probability for p in s.profile_mix) == pytest.approx(1.0)
    assert {(p.prefs.w_qos, p.prefs.w_price) for p in s.profile_mix} == {(0.7, 0.3), (0.4, 0.6)}
    assert (s.mean_interarrival_s, s.mean_service_s) == (2.5, 240.0)
    assert (s.duration_s, s.replications, s.base_seed) == (1200.0, 20, 42)


def test_remaining_kbps():
    net = default_scenario().operators[0]
    assert net.remaining_kbps == 1700.0
    loaded = replace(net, used_kbps=1500.0)
    assert loaded.remaining_kbps == 200.0


def test_demand_rate_missing_pair_raises():
    table = DemandTable({(ServiceKind.CONVERSATIONAL, Technology.UMTS): 256.0})
    with pytest.raises(KeyError):
        table.rate(ServiceKind.INTERACTIVE, Technology.WLAN)


def test_demand_rate_accepts_string_values_of_the_enums():
    table = default_scenario().demand
    assert (table.rate("interactive", "WLAN")
            == table.rate(ServiceKind.INTERACTIVE, Technology.WLAN) == 1024.0)
    assert table.rate(ServiceKind.CONVERSATIONAL, "UMTS") == 256.0
    sparse = DemandTable({(ServiceKind.CONVERSATIONAL, Technology.UMTS): 256.0})
    with pytest.raises(KeyError):
        sparse.rate("interactive", "WLAN")


def test_arrival_profiles_accumulate_in_mix_order():
    s = default_scenario()
    table = s.arrival_profiles
    assert table is s.arrival_profiles
    acc = 0.0
    for (cumulative, service_class, prefs), profile in zip(table, s.profile_mix, strict=True):
        acc += profile.probability
        assert cumulative == acc
        assert service_class == s.service_class(profile.service)
        assert prefs is profile.prefs
    assert table[-1][0] == pytest.approx(1.0)


def _with_operator(scenario, index, **changes):
    ops = list(scenario.operators)
    ops[index] = replace(ops[index], **changes)
    return replace(scenario, operators=tuple(ops))


def test_validation_reports_every_violation_at_once():
    s = default_scenario()
    s = _with_operator(s, 0, capacity_kbps=-5.0)
    s = replace(s, qos_weights={**s.qos_weights,
                                ServiceKind.CONVERSATIONAL: (0.5, 0.5, 0.5, 0.5)})
    rates = dict(s.demand.rates)
    del rates[(ServiceKind.INTERACTIVE, Technology.WLAN)]
    s = replace(s, demand=DemandTable(rates))
    violations = validate_scenario(s)
    assert len(violations) >= 3
    assert any("non-positive capacity" in v for v in violations)
    assert any("weight-sum violation" in v for v in violations)
    assert any("missing demand entry" in v for v in violations)


def test_weight_sum_tolerance_boundary():
    s = default_scenario()
    nearly = (0.05 + 5e-10, 0.45, 0.45, 0.05)
    ok = replace(s, qos_weights={**s.qos_weights, ServiceKind.CONVERSATIONAL: nearly})
    assert validate_scenario(ok) == []
    off = (0.05 + 1e-6, 0.45, 0.45, 0.05)
    bad = replace(s, qos_weights={**s.qos_weights, ServiceKind.CONVERSATIONAL: off})
    assert any("weight-sum violation" in v for v in validate_scenario(bad))


def test_duplicate_ids_and_bad_prices_reported():
    s = default_scenario()
    s = _with_operator(s, 1, id=1)
    s = _with_operator(s, 2, sp=0.0)
    violations = validate_scenario(s)
    assert any("duplicate operator id" in v for v in violations)
    assert any("non-positive price" in v for v in violations)


def test_non_positive_operator_ids_are_all_reported():
    s = _with_operator(default_scenario(), 0, id=0)
    s = _with_operator(s, 2, id=-2)
    assert [v for v in validate_scenario(s) if "operator id" in v] == [
        "non-positive operator id: operators[0].id = 0",
        "non-positive operator id: operators[2].id = -2",
    ]


def test_used_above_capacity_reported():
    s = _with_operator(default_scenario(), 0, used_kbps=2000.0)
    assert any("load out of range" in v for v in validate_scenario(s))


def test_profile_mix_probability_sum_checked():
    s = default_scenario()
    mix = tuple(replace(p, probability=0.3) for p in s.profile_mix)
    violations = validate_scenario(replace(s, profile_mix=mix))
    assert any("profile_mix probabilities" in v for v in violations)


def test_ensure_valid_raises_with_violation_list():
    s = _with_operator(default_scenario(), 0, capacity_kbps=0.0)
    with pytest.raises(ScenarioError) as err:
        ensure_valid(s)
    assert err.value.violations
    assert all(isinstance(v, str) for v in err.value.violations)


def test_dict_round_trip_preserves_scenario():
    s = default_scenario()
    assert scenario_from_dict(scenario_to_dict(s)) == s


def test_save_load_round_trip(tmp_path):
    s = replace(default_scenario(), base_seed=7, cooperation=False,
                billing="per_session")
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert load_scenario(path) == s


def test_shipped_default_scenario_matches_builtin():
    assert load_scenario(SCENARIO_DIR / "default.json") == default_scenario()


def test_shipped_calibrated_scenario():
    s = load_scenario(SCENARIO_DIR / "calibrated.json")
    assert validate_scenario(s) == []
    assert s.demand.rate(ServiceKind.CONVERSATIONAL, Technology.UMTS) == 64.0
    assert s.demand.rate(ServiceKind.CONVERSATIONAL, Technology.WLAN) == 64.0
    assert s.demand.rate(ServiceKind.INTERACTIVE, Technology.UMTS) == 128.0
    assert s.demand.rate(ServiceKind.INTERACTIVE, Technology.WLAN) == 192.0
    assert s.operators == default_scenario().operators


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("this is not json")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert any("not valid JSON" in v for v in err.value.violations)


def test_load_rejects_invalid_scenario(tmp_path):
    doc = scenario_to_dict(default_scenario())
    doc["operators"][0]["capacity_kbps"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert any("non-positive capacity" in v for v in err.value.violations)


def test_missing_operator_field_reported():
    doc = scenario_to_dict(default_scenario())
    del doc["operators"][0]["sp"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any("operators[0]" in v for v in err.value.violations)


def test_scalar_defaults_applied_when_absent():
    doc = scenario_to_dict(default_scenario())
    for name in ("mean_interarrival_s", "mean_service_s", "duration_s",
                 "replications", "base_seed", "cooperation", "billing"):
        del doc[name]
    s = scenario_from_dict(doc)
    assert s.mean_interarrival_s == 2.5
    assert s.replications == 20
    assert s.cooperation is True
    assert s.billing == "volume"


def test_unknown_keys_are_all_reported():
    doc = scenario_to_dict(default_scenario())
    doc["cooperaton"] = False
    doc["operators"][0]["wop"] = 0.0
    doc["requirements"]["interactive"]["ber"] = 1e-6
    doc["profile_mix"][2]["wqos"] = 0.5
    # A profile's preference weights are its own keys; there is no "prefs" object.
    doc["profile_mix"][0]["prefs"] = {"w_qos": 0.5, "w_price": 0.5}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert sorted(err.value.violations) == [
        "unknown field: cooperaton",
        "unknown field: operators[0].wop",
        "unknown field: profile_mix[0].prefs",
        "unknown field: profile_mix[2].wqos",
        "unknown field: requirements[interactive].ber",
    ]


@pytest.mark.parametrize("raw", ["false", "true", 0, 1, None])
def test_cooperation_must_be_a_json_boolean(raw):
    doc = scenario_to_dict(default_scenario())
    doc["cooperation"] = raw
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any("bad field cooperation" in v for v in err.value.violations)


@pytest.mark.parametrize("name", ["replications", "base_seed", "operator_id"])
@pytest.mark.parametrize("raw", [2.7, 1.5, "3", True, float("inf")])
def test_counts_and_seeds_must_be_integral(name, raw):
    doc = scenario_to_dict(default_scenario())
    if name == "operator_id":
        doc["operators"][0]["id"] = raw
        expected = "bad operator entry operators[0]"
    else:
        doc[name] = raw
        expected = f"bad field {name}"
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any(expected in v for v in err.value.violations)


def test_integral_float_count_and_seed_are_accepted():
    doc = scenario_to_dict(default_scenario())
    doc["replications"], doc["base_seed"] = 3.0, 7.0
    s = scenario_from_dict(doc)
    assert (s.replications, s.base_seed) == (3, 7)
    assert type(s.replications) is int and type(s.base_seed) is int


@pytest.mark.parametrize("path, raw, section", [
    ("operators.0.capacity_kbps", True, "operators[0]"),
    ("operators.0.sp", "0.1", "operators[0]"),
    ("operators.0.name", 5, "operators[0]"),
    pytest.param("operators.2.capacity_kbps", 10 ** 400, "operators[2]",
                 id="operators.2.capacity_kbps-10**400"),
    ("mean_service_s", "240", "mean_service_s"),
    ("demand.interactive.WLAN", True, "demand"),
    ("qos_weights.conversational.0", "0.05", "qos_weights"),
    ("requirements.conversational.ber_req", "1e-3", "requirements"),
    ("profile_mix.0.w_qos", True, "profile_mix[0]"),
])
def test_values_must_have_their_json_type(path, raw, section):
    doc = scenario_to_dict(default_scenario())
    *parents, key = (int(step) if step.isdigit() else step for step in path.split("."))
    target = doc
    for step in parents:
        target = target[step]
    target[key] = raw
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert any(section in v for v in err.value.violations), err.value.violations


def test_integral_json_number_loads_as_float():
    doc = scenario_to_dict(default_scenario())
    doc["operators"][0]["capacity_kbps"] = 1700
    s = scenario_from_dict(doc)
    assert type(s.operators[0].capacity_kbps) is float
    assert s.operators[0].capacity_kbps == 1700.0
    assert s == default_scenario()


def test_non_finite_numbers_are_all_reported():
    s = _with_operator(default_scenario(), 0, sp=math.nan, w_u=math.nan)
    s = _with_operator(s, 2, capacity_kbps=math.inf)
    s = replace(s, mean_interarrival_s=math.inf,
                qos_weights={**s.qos_weights,
                             ServiceKind.INTERACTIVE: (math.nan, 0.04, 0.16, 0.64)})
    violations = validate_scenario(s)
    for label in ("operators[0].sp", "operators[0].w_u", "operators[2].capacity_kbps",
                  "mean_interarrival_s", "qos_weights[interactive][0]"):
        assert any(v.startswith(f"non-finite number: {label} =") for v in violations), label
    with pytest.raises(ScenarioError):
        ensure_valid(s)


def test_non_finite_numbers_in_json_are_rejected(tmp_path):
    doc = scenario_to_dict(default_scenario())
    doc["profile_mix"][0]["w_qos"] = math.nan
    doc["duration_s"] = -math.inf
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # json writes NaN/-Infinity, and reads them back
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert any("profile_mix[0].w_qos" in v for v in err.value.violations)
    assert any("non-finite number: duration_s" in v for v in err.value.violations)


def test_unknown_billing_mode_reported():
    s = replace(default_scenario(), billing="per_minute")
    assert any("unknown billing mode" in v for v in validate_scenario(s))


def test_corrupting_any_numeric_field_is_caught():
    rng = random.Random(1234)
    base = scenario_to_dict(default_scenario())
    numeric_paths = []
    for i, op in enumerate(base["operators"]):
        for key, value in op.items():
            if isinstance(value, float) and value > 0:
                numeric_paths.append(("operators", i, key))
    for _ in range(50):
        doc = json.loads(json.dumps(base))
        section, index, key = rng.choice(numeric_paths)
        doc[section][index][key] = -abs(doc[section][index][key]) - rng.random()
        with pytest.raises(ScenarioError):
            ensure_valid(scenario_from_dict(doc))
