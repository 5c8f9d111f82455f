import json
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from accessim import model
from accessim.engine import run_experiment
from accessim.model import (
    MAX_EXPECTED_ARRIVALS,
    DemandTable,
    ScenarioError,
    ServiceKind,
    ServiceRequest,
    Session,
    Technology,
    default_scenario,
    ensure_valid,
    expected_arrivals,
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
    # The admission gates compute spare capacity as capacity_kbps - used_kbps.
    net = default_scenario().operators[0]
    assert net.capacity_kbps - net.used_kbps == 1700.0
    loaded = replace(net, used_kbps=1500.0)
    assert loaded.capacity_kbps - loaded.used_kbps == 200.0


def test_requests_and_sessions_are_immutable():
    s = default_scenario()
    profile = s.profile_mix[0]
    request = ServiceRequest(home_op=2, service_class=s.service_class(profile.service),
                             prefs=profile.prefs, price_paid=0.1)
    session = Session(request=request, serving_op=3, rate_kbps=256.0, start_s=1.0,
                      duration_s=2.0)
    for record, field in ((request, "home_op"), (session, "serving_op")):
        with pytest.raises(AttributeError):
            setattr(record, field, 9)
    with pytest.raises(AttributeError):
        del request.price_paid
    assert (request.home_op, request.price_paid) == (2, 0.1)
    assert request == ServiceRequest(2, s.service_class(profile.service), profile.prefs, 0.1)
    assert request != ServiceRequest(3, s.service_class(profile.service), profile.prefs, 0.1)


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
    # One shared request per (home operator, profile); a client pays its home's sp.
    requests = s.arrival_requests
    assert [[(r.home_op, r.service_class, r.prefs, r.price_paid) for r in row]
            for row in requests] == [[(net.id, service_class, prefs, net.sp)
                                      for _, service_class, prefs in table]
                                     for net in s.operators]


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


def with_scalar(scenario, label, value):
    """``scenario`` with the scalar that validation calls ``label`` set to ``value``."""
    section, _, rest = label.partition("[")
    if not rest:
        return replace(scenario, **{label: value})
    key, _, rest = rest.partition("]")  # rest is ".field" or "[key]"
    if section in ("operators", "profile_mix"):
        records = list(getattr(scenario, section))
        record, name = records[int(key)], rest[1:]
        if name in ("w_qos", "w_price"):
            records[int(key)] = replace(record, prefs=replace(record.prefs, **{name: value}))
        else:
            records[int(key)] = replace(record, **{name: value})
        return replace(scenario, **{section: tuple(records)})
    kind = ServiceKind(key)
    if section == "requirements":
        bounds = replace(scenario.requirements[kind], **{rest[1:]: value})
        return replace(scenario, requirements={**scenario.requirements, kind: bounds})
    if section == "demand":
        rates = {**scenario.demand.rates, (kind, Technology(rest[1:-1])): value}
        return replace(scenario, demand=DemandTable(rates))
    weights = list(scenario.qos_weights[kind])
    weights[int(rest[1:-1])] = value
    return replace(scenario, qos_weights={**scenario.qos_weights, kind: tuple(weights)})


@pytest.mark.parametrize("field, value", [("replications", 2.5), ("replications", True),
                                          ("base_seed", 1.5), ("cooperation", "no"),
                                          ("duration_s", "10"), ("mean_service_s", None),
                                          ("operators[0].capacity_kbps", "1700"),
                                          ("operators[0].technology", "LTE"),
                                          ("operators[0].id", True),
                                          ("profile_mix[0].service", "video"),
                                          ("qos_weights[interactive][0]", "0.16"),
                                          ("demand[interactive][WLAN]", "1024")])
def test_field_types_of_a_scenario_built_in_python_are_checked(field, value):
    # The JSON codec casts these fields; a scenario built in Python bypasses it.
    violations = validate_scenario(with_scalar(default_scenario(), field, value))
    assert len(violations) == 1
    assert violations[0].startswith(f"bad type: {field} = {value!r}, expected ")


def json_with(scenario, label, value):
    """The document of ``scenario`` with the value at the place validation calls ``label`` set.

    Every label of a scalar is a path in the document: ``profile_mix[0].w_qos``
    is ``doc["profile_mix"][0]["w_qos"]``.
    """
    doc = scenario_to_dict(scenario)
    *parents, last = re.findall(r"[^.\[\]]+", label)
    target = doc
    for step in parents:
        target = target[int(step) if isinstance(target, list) else step]
    target[int(last) if isinstance(target, list) else last] = value
    return doc


def with_container(scenario, label, value):
    """``scenario`` with the container or record that validation calls ``label`` set to ``value``."""
    if label == "demand.rates":
        return replace(scenario, demand=DemandTable(value))
    section, _, rest = label.partition("[")
    if not rest:
        return replace(scenario, **{section: value})
    key, _, name = rest.partition("]")  # name is "" or ".prefs"
    entries = getattr(scenario, section)
    if section in ("operators", "profile_mix"):
        entries = list(entries)
        entries[int(key)] = replace(entries[int(key)], prefs=value) if name else value
        return replace(scenario, **{section: tuple(entries)})
    return replace(scenario, **{section: {**entries, ServiceKind(key): value}})


@pytest.mark.parametrize("label, value", [("operators", None), ("profile_mix", None),
                                          ("requirements", None), ("qos_weights", None),
                                          ("demand", None), ("demand.rates", None),
                                          ("operators[1]", None), ("profile_mix[0]", None),
                                          ("profile_mix[0].prefs", None),
                                          ("requirements[interactive]", (20.0, 150.0, 1e-5)),
                                          ("qos_weights[interactive]", None),
                                          ("qos_weights[interactive]", 0.5)])
def test_a_malformed_container_is_one_bad_type(label, value):
    # Validation checks each container before it reads what the container holds.
    violations = validate_scenario(with_container(default_scenario(), label, value))
    assert len(violations) == 1
    assert violations[0].startswith(f"bad type: {label} = {value!r}, expected ")


@pytest.mark.parametrize("section", ["requirements", "qos_weights"])
@pytest.mark.parametrize("key", ["video", None, 5])
def test_a_bad_mapping_key_is_one_bad_type(section, key):
    s = replace(default_scenario(), duration_s=100.0, replications=1)
    entries = getattr(s, section)
    bad = replace(s, **{section: {**entries, key: entries[ServiceKind.INTERACTIVE]}})
    violations = validate_scenario(bad)
    if not violations:  # a scenario that passes validation must run to completion
        run_experiment(bad)
    assert violations == [f"bad type: {section}[{key}] = {key!r}, "
                          "expected one of conversational, interactive"]


@pytest.mark.parametrize("key", [("conversational",), ("conversational", "UMTS", "x"), "x",
                                 ("video", "UMTS"), (ServiceKind.CONVERSATIONAL, "LTE")])
def test_a_bad_demand_key_is_one_bad_type(key):
    # A pair is checked half by half, the class as a ServiceKind, the technology as a Technology.
    expected = {
        ("video", "UMTS"): "demand[video] = 'video', expected one of conversational, interactive",
        (ServiceKind.CONVERSATIONAL, "LTE"): ("demand[conversational][LTE] = 'LTE', "
                                              "expected one of UMTS, WLAN"),
    }.get(key, f"demand.rates key = {key!r}, expected a (ServiceKind, Technology) pair")
    for rates in ({key: 1.0}, {**default_scenario().demand.rates, key: 1.0}):
        violations = validate_scenario(replace(default_scenario(), demand=DemandTable(rates)))
        assert violations == [f"bad type: {expected}"]


def test_a_bad_json_demand_class_is_reported_once():
    doc = scenario_to_dict(default_scenario())
    doc["demand"]["video"] = {"UMTS": 64.0, "WLAN": 64.0}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [
        "bad type: demand[video] = 'video', expected one of conversational, interactive"]


@pytest.mark.parametrize("label, path, raw", [
    ("mean_service_s", ("mean_service_s",), "240"),
    ("replications", ("replications",), "3"),
    ("cooperation", ("cooperation",), "no"),
    ("billing", ("billing",), 5),
    ("operators[0].technology", ("operators", 0, "technology"), "LTE"),
    ("profile_mix[0].service", ("profile_mix", 0, "service"), "video"),
])
def test_both_entry_paths_word_a_type_breach_alike(label, path, raw):
    # One float, int, bool, str, Technology and ServiceKind field.
    prefix = f"bad type: {label} = {raw!r}, expected "
    [python] = validate_scenario(with_scalar(default_scenario(), label, raw))
    assert python.startswith(prefix)
    doc = scenario_to_dict(default_scenario())
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = raw
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [python]


def test_plain_string_enum_values_validate_and_run():
    members = replace(default_scenario(), duration_s=100.0, replications=2)
    strings = with_scalar(members, "operators[1].technology", "WLAN")
    strings = with_scalar(strings, "profile_mix[0].service", "conversational")
    assert type(strings.operators[1].technology) is type(strings.profile_mix[0].service) is str
    assert validate_scenario(strings) == []
    assert run_experiment(strings).results == run_experiment(members).results


def test_demand_is_required_only_for_technologies_in_use():
    s = default_scenario()
    # Op1 is the only UMTS network, so without it no UMTS rate is read.
    rates = {key: rate for key, rate in s.demand.rates.items() if key[1] is Technology.WLAN}
    wlan_only = replace(s, operators=s.operators[1:], demand=DemandTable(rates),
                        duration_s=100.0, replications=2)
    assert validate_scenario(wlan_only) == []
    for result in run_experiment(wlan_only).results:
        assert result.arrivals == (result.blocked + result.served_home
                                   + result.served_transferred) > 0
    del rates[(ServiceKind.INTERACTIVE, Technology.WLAN)]
    assert validate_scenario(replace(wlan_only, demand=DemandTable(rates))) == [
        "missing demand entry: demand[interactive][WLAN]"]


def test_every_bound_is_in_the_documented_table():
    validation = (SCENARIO_DIR.parent / "docs" / "scenario_schema.md").read_text().split(
        "## Validation", 1)[1]
    rows = [line for line in validation.splitlines() if line.startswith("| ")]
    for name, (_, kind) in model._BOUNDS.items():
        assert any(f"{name}`" in row and f"`{kind}`" in row for row in rows), (name, kind)


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


@pytest.mark.parametrize("name", ["default.json", "calibrated.json"])
def test_a_shipped_file_is_written_back_as_it_is(name):
    path = SCENARIO_DIR / name
    doc, written = json.loads(path.read_text()), scenario_to_dict(load_scenario(path))
    assert written == doc
    assert list(written) == list(doc)


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


@pytest.mark.parametrize("raw", [b"\xc3\x28", b"\xff\xfe{}"], ids=["bad-utf8", "utf16-bom"])
def test_load_rejects_bytes_that_are_not_json_text(tmp_path, raw):
    # Invalid UTF-8, and a UTF-16 byte-order mark before two bytes that decode to one CJK letter.
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    [violation] = err.value.violations
    assert violation.startswith(f"not valid JSON: {path}: ")


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32-be"])
def test_load_reads_json_text_in_any_utf_encoding(tmp_path, encoding):
    path = tmp_path / "calibrated.json"
    path.write_text((SCENARIO_DIR / "calibrated.json").read_text(), encoding=encoding)
    assert load_scenario(path) == load_scenario(SCENARIO_DIR / "calibrated.json")


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
    # A nested record's field is a key of its parent's object and of no other.
    doc["w_qos"] = 0.5
    doc["operators"][1]["w_price"] = 0.5
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert sorted(err.value.violations) == [
        "unknown field: cooperaton",
        "unknown field: operators[0].wop",
        "unknown field: operators[1].w_price",
        "unknown field: profile_mix[0].prefs",
        "unknown field: profile_mix[2].wqos",
        "unknown field: requirements[interactive].ber",
        "unknown field: w_qos",
    ]


def test_operator_name_defaults_to_op_and_the_id_as_read():
    doc = scenario_to_dict(default_scenario())
    for entry in doc["operators"]:
        del entry["name"]
    doc["operators"][0]["id"] = 1.0
    s = scenario_from_dict(doc)
    assert [(net.id, net.name) for net in s.operators] == [(1, "Op1"), (2, "Op2"), (3, "Op3")]
    assert s == default_scenario()


@pytest.mark.parametrize("raw", ["false", "true", 0, 1, None])
def test_cooperation_must_be_a_json_boolean(raw):
    doc = scenario_to_dict(default_scenario())
    doc["cooperation"] = raw
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [f"bad type: cooperation = {raw!r}, expected a bool"]


@pytest.mark.parametrize("name", ["replications", "base_seed", "operator_id"])
@pytest.mark.parametrize("raw", [2.7, 1.5, "3", True, float("inf")])
def test_counts_and_seeds_must_be_integral(name, raw):
    label = "operators[0].id" if name == "operator_id" else name
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(json_with(default_scenario(), label, raw))
    assert err.value.violations == [f"bad type: {label} = {raw!r}, expected an integer"]


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


@pytest.mark.parametrize("label, violation", [
    ("operators", "bad field operators: expected an array, got None"),
    ("operators[1]", "bad operator entry operators[1]: expected an object, got None"),
    ("demand[conversational]",
     "bad demand entry demand[conversational]: expected an object, got None"),
    ("requirements[interactive]",
     "bad requirements entry requirements[interactive]: expected an object, got None"),
    ("profile_mix[0]", "bad profile entry profile_mix[0]: expected an object, got None"),
])
def test_a_json_container_of_another_type_is_reported_alone(label, violation):
    # Its contents cannot be read, so the values around it are not judged either.
    doc = json_with(replace(default_scenario(), duration_s=-1.0), label, None)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [violation]


@pytest.mark.parametrize("raw", [None, 0.5, "1234", {"a": 1}])
def test_json_qos_weights_entries_must_be_arrays(raw):
    doc = scenario_to_dict(default_scenario())
    doc["qos_weights"]["interactive"] = raw
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [
        f"bad qos_weights[interactive]: expected an array, got {raw!r}"]


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


@pytest.mark.parametrize("label, value", [
    ("operators[0].used_kbps", math.nan), ("operators[0].used_kbps", math.inf),
    ("operators[0].used_kbps", -math.inf),
    pytest.param("operators[0].used_kbps", 10**400, id="operators[0].used_kbps-10**400"),
    ("operators[0].capacity_kbps", math.nan), ("qos_weights[interactive][0]", math.inf),
    ("qos_weights[interactive][0]", -math.inf), ("profile_mix[0].probability", math.inf),
    ("profile_mix[0].w_qos", math.inf), ("profile_mix[0].w_price", -math.inf),
])
def test_a_non_finite_number_is_reported_once(label, value):
    # The checks that span fields (load, weight sums) skip it.
    violations = validate_scenario(with_scalar(default_scenario(), label, value))
    assert violations == [f"non-finite number: {label} = {value!r}"]


def test_an_int_too_large_for_a_float_is_non_finite():
    # float() of it overflows, so no run could use it; a file reads it as that int.
    for label in ("duration_s", "operators[0].capacity_kbps"):
        violations = validate_scenario(with_scalar(default_scenario(), label, 10**400))
        assert violations == [f"non-finite number: {label} = {10**400!r}"]
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(json_with(default_scenario(), label, 10**400))
        assert err.value.violations == violations


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


def test_expected_arrivals_above_the_cap_are_reported():
    calibrated = load_scenario(SCENARIO_DIR / "calibrated.json")
    assert expected_arrivals(calibrated) == calibrated.duration_s / calibrated.mean_interarrival_s
    # The cap bounds the whole experiment, so one replication may take all of it.
    at_cap = replace(calibrated, replications=1,
                     mean_interarrival_s=calibrated.duration_s / MAX_EXPECTED_ARRIVALS)
    assert expected_arrivals(at_cap) == MAX_EXPECTED_ARRIVALS
    assert validate_scenario(at_cap) == []
    # 1e-300 s between arrivals would expect ~1.2e303 arrivals per replication,
    # and 1e300 / 1e-300 overflows to infinity: both are refused.
    for duration_s, mean_interarrival_s in ((1200.0, 1e-300), (1e300, 1e-300),
                                            (2.0 * MAX_EXPECTED_ARRIVALS, 1.0)):
        violations = validate_scenario(replace(calibrated, duration_s=duration_s,
                                               mean_interarrival_s=mean_interarrival_s))
        assert len(violations) == 1
        assert violations[0].startswith("too many expected arrivals: ")


def test_replications_count_towards_the_arrival_cap(tmp_path):
    # calibrated.json expects 480 arrivals per replication, so the cap allows
    # 20,833 replications; 1e9 would run for days and 1e300 would never end.
    calibrated = load_scenario(SCENARIO_DIR / "calibrated.json")
    largest = MAX_EXPECTED_ARRIVALS // 480
    assert validate_scenario(replace(calibrated, replications=largest)) == []
    for replications in (largest + 1, 10**9, 10**400):
        violations = validate_scenario(replace(calibrated, replications=replications))
        assert [v.split(":")[0] for v in violations] == ["too many expected arrivals"]
    # A replication draws at least its first arrival, however short its horizon.
    brief = replace(calibrated, duration_s=1e-300, replications=MAX_EXPECTED_ARRIVALS)
    assert validate_scenario(brief) == []
    assert validate_scenario(replace(brief, replications=MAX_EXPECTED_ARRIVALS + 1)) != []

    doc = scenario_to_dict(calibrated)
    doc["replications"] = 1e300   # a JSON float that is a 301-digit integer
    path = tmp_path / "forever.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert [v.split(":")[0] for v in err.value.violations] == ["too many expected arrivals"]


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
