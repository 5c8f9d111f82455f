import enum
import json
import math
import random
import re
import time
from collections.abc import Mapping
from pathlib import Path

import pytest

from accessim import model
from accessim.engine import run_experiment
from accessim.model import (
    MAX_EXPECTED_ARRIVALS,
    MAX_OPERATORS,
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
    replace,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from test_cli import CALIBRATED, run_cli

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
    assert {(p.w_qos, p.w_price) for p in s.profile_mix} == {(0.7, 0.3), (0.4, 0.6)}
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
                             w_qos=profile.w_qos, w_price=profile.w_price, price_paid=0.1)
    session = Session(request=request, serving_op=3, rate_kbps=256.0, start_s=1.0,
                      duration_s=2.0)
    for record, field in ((request, "home_op"), (session, "serving_op")):
        with pytest.raises(AttributeError):
            setattr(record, field, 9)
    with pytest.raises(AttributeError):
        del request.price_paid
    assert (request.home_op, request.price_paid) == (2, 0.1)
    assert request == ServiceRequest(2, s.service_class(profile.service),
                                     profile.w_qos, profile.w_price, 0.1)
    assert request != ServiceRequest(3, s.service_class(profile.service),
                                     profile.w_qos, profile.w_price, 0.1)


def test_demand_rate_missing_pair_raises():
    table = DemandTable({ServiceKind.CONVERSATIONAL: {Technology.UMTS: 256.0}})
    with pytest.raises(KeyError):
        table.rate(ServiceKind.INTERACTIVE, Technology.WLAN)


def test_demand_rate_accepts_string_values_of_the_enums():
    table = default_scenario().demand
    assert (table.rate("interactive", "WLAN")
            == table.rate(ServiceKind.INTERACTIVE, Technology.WLAN) == 1024.0)
    assert table.rate(ServiceKind.CONVERSATIONAL, "UMTS") == 256.0
    sparse = DemandTable({ServiceKind.CONVERSATIONAL: {Technology.UMTS: 256.0}})
    with pytest.raises(KeyError):
        sparse.rate("interactive", "WLAN")


def test_arrival_profiles_accumulate_in_mix_order():
    s = default_scenario()
    requests = s.arrival_requests
    assert requests is s.arrival_requests
    # One shared request per (home operator, profile), the profiles in mix order;
    # a client pays its home's sp.
    assert [[(r.home_op, r.service_class, r.w_qos, r.w_price, r.price_paid) for r in row]
            for row in requests] == [[(net.id, s.service_class(profile.service),
                                       profile.w_qos, profile.w_price, net.sp)
                                      for profile in s.profile_mix]
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
    s = with_scalar(s, "demand[interactive]", {Technology.UMTS: 512.0})
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


@pytest.mark.parametrize("billing", ["volume", "per_session"])
def test_prices_whose_report_totals_could_overflow_are_one_violation(billing):
    scenario = replace(load_scenario(SCENARIO_DIR / "calibrated.json"), billing=billing)

    def priced(price):
        return replace(scenario, operators=tuple(replace(net, sp=price, cs=price)
                                                 for net in scenario.operators))

    # Prices of 1e160 keep every total finite; only a deviation squared in the
    # summary's stddev overflows there, which is a separate, known fault.
    assert validate_scenario(priced(1e160)) == []
    assert validate_scenario(priced(1e306)) == [
        "money out of range: prices up to 1e+306 could sum past the float range in a report"]
    # Volume billing also multiplies by the horizon: one of 1e300 s, with arrivals
    # sparse enough for the arrival cap, trips the bound at a price of 1.
    long = replace(priced(1.0), duration_s=1e300, mean_interarrival_s=1e296)
    assert validate_scenario(long) == ([] if billing == "per_session" else [
        "money out of range: prices up to 1.0 could sum past the float range in a report"])


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


def _entry(container, step):
    """The entry that one step of a label names: a record's field, a mapping's key or an index."""
    if isinstance(container, model._Record):
        return getattr(container, step)
    return container[step if isinstance(container, Mapping) else int(step)]


def _with_entry(container, step, value):
    """A copy of ``container`` with the entry that ``step`` names set to ``value``."""
    if isinstance(container, model._Record):
        return replace(container, **{step: value})
    if isinstance(container, Mapping):
        return type(container)({**container, step: value})  # an enum key keeps its member
    return (*container[:int(step)], value, *container[int(step) + 1:])


def with_scalar(scenario, label, value):
    """``scenario`` with the value that validation calls ``label`` set to ``value``.

    Every label is a path into the scenario, as into its file:
    ``demand[interactive][WLAN]`` is ``scenario.demand["interactive"]["WLAN"]``
    and ``profile_mix[0].w_qos`` is ``scenario.profile_mix[0].w_qos``.
    """
    steps = re.findall(r"[^.\[\]]+", label)
    path = [scenario]
    for step in steps[:-1]:
        path.append(_entry(path[-1], step))
    for container, step in zip(reversed(path), reversed(steps)):
        value = _with_entry(container, step, value)
    return value


# A container or a record is set the way a scalar is.
with_container = with_scalar


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


@pytest.mark.parametrize("label, value", [("operators", None), ("profile_mix", None),
                                          ("requirements", None), ("qos_weights", None),
                                          ("demand", None), ("demand[interactive]", None),
                                          ("operators[1]", None), ("profile_mix[0]", None),
                                          ("demand[conversational]", 5),
                                          ("requirements[interactive]", (20.0, 150.0, 1e-5)),
                                          ("qos_weights[interactive]", None),
                                          ("qos_weights[interactive]", 0.5)])
def test_a_malformed_container_is_one_bad_type(label, value):
    # Validation checks each container before it reads what the container holds.
    violations = validate_scenario(with_container(default_scenario(), label, value))
    assert len(violations) == 1
    assert violations[0].startswith(f"bad type: {label} = {value!r}, expected ")


def _without_interactive(section):
    """The default scenario's ``section`` mapping less its interactive entry."""
    return {kind: entry for kind, entry in getattr(default_scenario(), section).items()
            if kind is not ServiceKind.INTERACTIVE}


@pytest.mark.parametrize("label, value, violation", [
    ("operators", (), "operators: list is empty, at least one operator is required"),
    ("profile_mix", (), "profile_mix: list is empty"),
    ("qos_weights", _without_interactive("qos_weights"),
     "missing QoS weights: qos_weights[interactive]"),
    ("requirements", _without_interactive("requirements"),
     "missing requirements entry: requirements[interactive]"),
    ("qos_weights[interactive]", (0.5, 0.25, 0.25),
     "weight-sum violation: qos_weights[interactive] must have 4 entries"),
    ("qos_weights[interactive]", (-0.25, 0.75, 0.25, 0.25),
     "weight-sum violation: qos_weights[interactive] has a negative entry "
     "(-0.25, 0.75, 0.25, 0.25)"),
    ("profile_mix[0]", replace(default_scenario().profile_mix[0], w_qos=-0.5, w_price=1.5),
     "weight-sum violation: profile_mix[0] preference weights has a negative entry (-0.5, 1.5)"),
    ("qos_weights[interactive]", (1, 1, 0, 0),  # an all-int sum prints as an int
     "weight-sum violation: qos_weights[interactive] sums to 2, expected 1"),
])
def test_a_rule_across_a_sections_entries_gives_one_violation(label, value, violation):
    # Each of these values has the right type, so only the rule across entries is broken.
    assert validate_scenario(with_container(default_scenario(), label, value)) == [violation]


_HUGE = int(1.7e308)  # an int that fits a float, though two of them summed do not


@pytest.mark.parametrize("label, value, violation", [
    ("qos_weights[interactive]", (_HUGE, _HUGE, 0.5, 0.25),
     "weight-sum violation: qos_weights[interactive] sums to inf, expected 1"),
    ("profile_mix[0]", replace(default_scenario().profile_mix[0], w_qos=_HUGE, w_price=_HUGE),
     "weight-sum violation: profile_mix[0] preference weights sums to inf, expected 1"),
    ("profile_mix", tuple(replace(profile, probability=p) for profile, p
                          in zip(default_scenario().profile_mix, (_HUGE, _HUGE, 0.5, 0.25),
                                 strict=True)),
     "weight-sum violation: profile_mix probabilities sum to inf"),
])
def test_finite_int_weights_that_overflow_a_float_when_summed(label, value, violation):
    # Only a scenario built in Python holds such ints: a loaded file reads them as floats.
    scenario = with_container(default_scenario(), label, value)
    assert validate_scenario(scenario) == [violation]
    with pytest.raises(ScenarioError) as err:
        ensure_valid(scenario)
    assert err.value.violations == [violation]


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
    # A demand table is keyed by class; a pair, as a key, is no class.
    for demand in ({key: {Technology.UMTS: 1.0, Technology.WLAN: 1.0}},
                   {**default_scenario().demand, key: {Technology.UMTS: 1.0}}):
        violations = validate_scenario(replace(default_scenario(), demand=DemandTable(demand)))
        assert violations == [f"bad type: demand[{key}] = {key!r}, "
                              "expected one of conversational, interactive"]


def test_a_bad_json_demand_class_is_reported_once():
    doc = scenario_to_dict(default_scenario())
    doc["demand"]["video"] = {"UMTS": 64.0, "WLAN": 64.0}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.violations == [
        "bad type: demand[video] = 'video', expected one of conversational, interactive"]


# One breach in a record, two in demand (a technology, then a class, in the
# file's order) and one in the QoS weights, and how they are reported in order.
MIXED_BREACHES = (("operators[0].capacity_kbps", "x"), ("qos_weights[interactive][0]", "y"),
                  ("demand[interactive][LTE]", 3), ("demand[video]", {"UMTS": 1}))
MIXED_VIOLATIONS = [
    "bad type: operators[0].capacity_kbps = 'x', expected a number",
    "bad type: demand[interactive][LTE] = 'LTE', expected one of UMTS, WLAN",
    "bad type: demand[video] = 'video', expected one of conversational, interactive",
    "bad type: qos_weights[interactive][0] = 'y', expected a number",
]


def test_violations_across_sections_keep_their_order(tmp_path):
    # Every record's scalars, then demand's keys and rates in the file's order,
    # then the QoS weights.
    doc = json.loads(Path(CALIBRATED).read_text())
    doc["operators"][0]["capacity_kbps"] = "x"
    doc["qos_weights"]["interactive"][0] = "y"
    doc["demand"]["interactive"]["LTE"] = 3
    doc["demand"]["video"] = {"UMTS": 1}
    path, out = tmp_path / "mixed.json", tmp_path / "never"
    path.write_text(json.dumps(doc))
    proc = run_cli("run", "--scenario", str(path), "--out", str(out))
    assert (proc.returncode, proc.stderr.splitlines()) == (2, MIXED_VIOLATIONS)
    assert not out.exists()


def test_a_scenario_built_in_python_keeps_the_order_of_its_file():
    s = load_scenario(CALIBRATED)
    for label, value in MIXED_BREACHES:
        s = with_scalar(s, label, value)
    assert validate_scenario(s) == MIXED_VIOLATIONS


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
    rates = DemandTable({kind: {Technology.WLAN: per_tech[Technology.WLAN]}
                         for kind, per_tech in s.demand.items()})
    wlan_only = replace(s, operators=s.operators[1:], demand=rates,
                        duration_s=100.0, replications=2)
    assert validate_scenario(wlan_only) == []
    for result in run_experiment(wlan_only).results:
        assert result.arrivals == (result.blocked + result.served_home
                                   + result.served_transferred) > 0
    assert validate_scenario(with_scalar(wlan_only, "demand[interactive]", {})) == [
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



def test_a_change_to_one_default_scenario_reaches_no_other():
    changed = default_scenario()
    changed.demand[ServiceKind.INTERACTIVE][Technology.WLAN] = 1.0
    changed.qos_weights[ServiceKind.INTERACTIVE] = (0.25, 0.25, 0.25, 0.25)
    changed.requirements.clear()
    assert default_scenario().demand.rate("interactive", "WLAN") == 1024.0
    assert default_scenario() == load_scenario(SCENARIO_DIR / "default.json")

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


def test_repeated_keys_are_reported_alone(tmp_path):
    text = (SCENARIO_DIR / "calibrated.json").read_text()
    path = tmp_path / "repeated.json"
    # json keeps the last value of a repeated key, which here is the file's own.
    for edit in (('"cooperation": true', '"cooperation": false, "cooperation": true'),
                 ('"capacity_kbps": 11000.0', '"capacity_kbps": -1.0, "capacity_kbps": 11000.0')):
        path.write_text(text.replace(*edit, 1))
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert err.value.violations == [
            "duplicate field: cooperation" if "cooperation" in edit[0]
            else "duplicate field: operators[1].capacity_kbps"]
    # Reported with the other problems only a document can have, before any value is judged.
    path.write_text(text.replace('"interactive": {', '"interactive": {"WLAN": 1, ', 1)
                    .replace('"cooperation": true', '"cooperation": 0, "cooperation": 0, "x": 1', 1)
                    .replace('"capacity_kbps": 1700.0', '"capacity_kbps": -1.0', 1)
                    .replace('"requirements": {', '"requirements": {"interactive": {}, ', 1))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert sorted(err.value.violations) == [
        "duplicate field: cooperation",
        "duplicate field: demand[interactive][WLAN]",
        "duplicate field: requirements[interactive]",
        "unknown field: x",
    ]
    # A document parsed without the hook has no repeated keys to report.
    assert scenario_from_dict(json.loads(text)) == load_scenario(SCENARIO_DIR / "calibrated.json")


def test_repeated_keys_are_found_in_linear_time(tmp_path):
    # 30,000 distinct keys and one repeat.  Counting each key over the whole
    # object is quadratic: it took seconds where one count of all keys takes
    # milliseconds.
    path = tmp_path / "many-keys.json"
    path.write_text("{" + ", ".join(f'"k{i}": 0' for i in range(30000)) + ', "k0": 1}')
    start = time.perf_counter()
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    elapsed = time.perf_counter() - start
    assert err.value.violations[0] == "duplicate field: k0"
    assert elapsed < 2.0


@pytest.mark.parametrize("raw", ["[]", '"x"', "3", "null"])
def test_a_document_that_is_not_an_object_is_one_violation(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_text(raw)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert err.value.violations == ["scenario document must be a JSON object"]


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
    # Added to the other profile probabilities it would overflow too, so their sum
    # is not checked.
    for label in ("duration_s", "operators[0].capacity_kbps", "profile_mix[0].probability"):
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


def _copies_of_the_default_operators(n):
    operators = default_scenario().operators * n
    return tuple(replace(net, id=i + 1) for i, net in enumerate(operators[:n]))


def test_the_operator_count_is_capped(tmp_path):
    # The admission table compiles up to every other operator per operator and class.
    s = default_scenario()
    assert validate_scenario(replace(s, operators=_copies_of_the_default_operators(100))) == []
    over = replace(s, operators=_copies_of_the_default_operators(MAX_OPERATORS + 1))
    assert validate_scenario(over) == ["too many operators: operators has 101 entries, above 100"]
    # Refused before any table is built: 3,000 operators would take minutes and gigabytes.
    doc = json.loads(Path(CALIBRATED).read_text())
    doc["operators"] = [dict(op, id=i + 1) for i, op in enumerate(doc["operators"] * 1000)]
    path, out = tmp_path / "many-ops.json", tmp_path / "never"
    path.write_text(json.dumps(doc))
    proc = run_cli("run", "--scenario", str(path), "--out", str(out), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "too many operators: operators has 3000 entries, above 100"]
    assert not out.exists()


def test_a_mean_interarrival_time_whose_rate_overflows_is_refused():
    # 1 / 1e-312 is infinite, so every gap would be zero and the clock would never
    # reach the horizon; the cap alone passes it (100 expected arrivals).
    calibrated = load_scenario(SCENARIO_DIR / "calibrated.json")
    subnormal = replace(calibrated, duration_s=1e-310, mean_interarrival_s=1e-312,
                        replications=1)
    assert validate_scenario(subnormal) == [
        "traffic parameter too small: mean_interarrival_s = 1e-312"]
    # An infinite service rate only makes every session zero-length: the run ends.
    instant = replace(calibrated, mean_service_s=1e-312, replications=1)
    assert validate_scenario(instant) == []
    [result] = run_experiment(instant).results
    assert result.arrivals > result.blocked == 0


def test_an_int_subclass_is_not_an_integer():
    ids = enum.IntEnum("Ids", "ONE TWO THREE")
    s = default_scenario()
    s = replace(s, operators=tuple(replace(net, id=member)
                                   for net, member in zip(s.operators, ids, strict=True)))
    assert validate_scenario(s) == [
        f"bad type: operators[{i}].id = {member!r}, expected an integer"
        for i, member in enumerate(ids)]


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
