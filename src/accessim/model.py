"""Domain model: operators, service classes, traffic profiles and the scenario schema.

Everything here is data plus validation; the decision logic lives in
``selection`` and the event loop in ``engine``.  A Scenario is
serialized one-to-one to JSON (see docs/scenario_schema.md), so scenario
files can be edited by hand and replayed deterministically.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple

WEIGHT_SUM_TOL = 1e-9
# Most arrivals an experiment may expect: at a few µs each, under a minute of work.
MAX_EXPECTED_ARRIVALS = 10_000_000


class ServiceKind(str, Enum):
    CONVERSATIONAL = "conversational"  # real-time: jitter/delay sensitive
    INTERACTIVE = "interactive"        # non-real-time: loss sensitive

    def __str__(self):
        return self.value


class Technology(str, Enum):
    UMTS = "UMTS"
    WLAN = "WLAN"

    def __str__(self):
        return self.value


# Per-class criteria weights in the order (bandwidth, jitter, delay, BER).
DEFAULT_QOS_WEIGHTS = {
    ServiceKind.CONVERSATIONAL: (0.05, 0.45, 0.45, 0.05),
    ServiceKind.INTERACTIVE: (0.16, 0.04, 0.16, 0.64),
}


@dataclass(frozen=True)
class ServiceClass:
    """A QoS class: its kind plus the criteria weights used when scoring."""

    kind: ServiceKind
    qos_weights: tuple[float, float, float, float]


@dataclass(frozen=True)
class ClassRequirements:
    """Per-class QoS thresholds; bandwidth is technology-dependent so it lives in DemandTable."""

    jitter_req: float
    delay_req: float
    ber_req: float


DEFAULT_REQUIREMENTS = {
    ServiceKind.CONVERSATIONAL: ClassRequirements(jitter_req=10.0, delay_req=100.0, ber_req=1e-3),
    ServiceKind.INTERACTIVE: ClassRequirements(jitter_req=20.0, delay_req=150.0, ber_req=1e-5),
}


@dataclass(frozen=True)
class UserPreferences:
    """Preference split between QoS and price; the two weights sum to one."""

    w_qos: float
    w_price: float


@dataclass
class OperatorNetwork:
    """One operator and the single radio access network it manages.

    ``used_kbps`` is the only mutable piece of simulation state; the engine
    owns it and everything else stays constant during a run.
    """

    id: int
    name: str
    technology: Technology
    capacity_kbps: float
    jitter_ms: float
    delay_ms: float
    ber: float
    sp: float          # advertised service price, unit/kByte
    cs: float          # settlement cost charged when serving a guest, unit/kByte
    w_u: float = 1.0   # weight on user satisfaction when transferring a client
    w_op: float = 1.0  # weight on profit margin when transferring a client
    used_kbps: float = 0.0


class ServiceRequest:
    """What an arrival asks of admission: its home, service class, preferences and price.

    ``price_paid`` is what the client pays its home operator, unit/kByte.  A
    request is one of |operators| x |profiles| values, so every arrival of the
    same (home, profile) shares one object (``Scenario.arrival_requests``) and
    assigning to it raises ``AttributeError``.  It is a ``__slots__`` class
    because Python specializes loads of its fields, which it does not do for a
    named tuple's.
    """

    __slots__ = ("home_op", "service_class", "prefs", "price_paid")

    def __init__(self, home_op: int, service_class: ServiceClass, prefs: UserPreferences,
                 price_paid: float):
        init = object.__setattr__
        init(self, "home_op", home_op)
        init(self, "service_class", service_class)
        init(self, "prefs", prefs)
        init(self, "price_paid", price_paid)

    def __setattr__(self, name, value):
        raise AttributeError(f"a ServiceRequest is shared and cannot be changed: {name}")

    def __delattr__(self, name):
        raise AttributeError(f"a ServiceRequest is shared and cannot be changed: {name}")

    def _key(self):
        return self.home_op, self.service_class, self.prefs, self.price_paid

    def __eq__(self, other):
        if type(other) is not ServiceRequest:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        home_op, service_class, prefs, price_paid = self._key()
        return (f"ServiceRequest({home_op=!r}, {service_class=!r}, {prefs=!r}, "
                f"{price_paid=!r})")


class DemandTable(NamedTuple):
    """Constant bit rate consumed per (service kind, technology), kb/s."""

    rates: Mapping[tuple[ServiceKind, Technology], float]

    def rate(self, kind, technology):
        # Both enums are str-valued, so a member and its value find the same key.
        return self.rates[(kind, technology)]


DEFAULT_DEMAND = DemandTable(rates={
    (ServiceKind.CONVERSATIONAL, Technology.UMTS): 256.0,
    (ServiceKind.CONVERSATIONAL, Technology.WLAN): 256.0,
    (ServiceKind.INTERACTIVE, Technology.UMTS): 512.0,
    (ServiceKind.INTERACTIVE, Technology.WLAN): 1024.0,
})


@dataclass(frozen=True)
class TrafficProfile:
    """One cell of the arrival mix: a service kind, a preference pair, a probability."""

    service: ServiceKind
    prefs: UserPreferences
    probability: float


class Session(NamedTuple):
    """An admitted request bound to a serving operator for a drawn duration."""

    request: ServiceRequest
    serving_op: int
    rate_kbps: float
    start_s: float
    duration_s: float


@dataclass(frozen=True)
class Scenario:
    """Complete, self-contained description of one experiment."""

    operators: tuple[OperatorNetwork, ...]
    demand: DemandTable
    qos_weights: Mapping[ServiceKind, tuple[float, float, float, float]]
    requirements: Mapping[ServiceKind, ClassRequirements]
    profile_mix: tuple[TrafficProfile, ...]
    mean_interarrival_s: float = 2.5
    mean_service_s: float = 240.0
    duration_s: float = 1200.0
    replications: int = 20
    base_seed: int = 42
    cooperation: bool = True
    billing: str = "volume"  # "volume" (price x kBytes) or "per_session" (flat price)

    def service_class(self, kind) -> ServiceClass:
        kind = ServiceKind(kind)
        return ServiceClass(kind=kind, qos_weights=tuple(self.qos_weights[kind]))

    @cached_property
    def arrival_profiles(self) -> tuple[tuple[float, ServiceClass, UserPreferences], ...]:
        """(cumulative probability, service class, prefs) per profile, built once per scenario.

        An arrival takes the first entry whose cumulative probability exceeds its
        uniform draw, or the last entry when rounding leaves the draw above all.
        """
        table = []
        acc = 0.0
        for profile in self.profile_mix:
            acc += profile.probability
            table.append((acc, self.service_class(profile.service), profile.prefs))
        return tuple(table)

    @cached_property
    def arrival_requests(self) -> tuple[tuple[ServiceRequest, ...], ...]:
        """The shared request of each (home operator, profile), built once per scenario.

        Indexed ``[operator index][profile index]``, both in scenario order; a
        client pays its home operator's ``sp``.
        """
        return tuple(tuple(ServiceRequest(net.id, service_class, prefs, net.sp)
                           for _, service_class, prefs in self.arrival_profiles)
                     for net in self.operators)


@dataclass
class OperatorLedger:
    """Money flows of one operator, in price units (unit/kByte x kBytes).

    income_own          revenue from own clients served at home
    income_transferred  revenue from own clients served elsewhere (client still pays home)
    income_guests       settlement received for serving other operators' clients
    cost_paid           settlement paid out for own clients served elsewhere
    """

    income_own: float = 0.0
    income_transferred: float = 0.0
    income_guests: float = 0.0
    cost_paid: float = 0.0

    @property
    def profit(self):
        return self.income_own + self.income_transferred + self.income_guests - self.cost_paid


class ReplicationResult(NamedTuple):
    """Raw outcome of a single replication; ``analytics.scope_rows`` derives its metrics.

    Each count is stored once, per operator; the totals are derived from it.
    """

    seed: int
    arrivals_by_home: dict[int, int]
    blocked_by_home: dict[int, int]
    served_home_by_op: dict[int, int]
    exchange: dict[tuple[int, int, ServiceKind], int]  # transfers by (home, serving, kind)
    ledgers: dict[int, OperatorLedger]
    interarrival_sum: float

    @property
    def arrivals(self):
        return sum(self.arrivals_by_home.values())

    @property
    def blocked(self):
        return sum(self.blocked_by_home.values())

    @property
    def served_home(self):
        return sum(self.served_home_by_op.values())

    @property
    def served_transferred(self):
        return sum(self.exchange.values())

    @property
    def sessions(self):
        """Always empty: no session is kept.  benchmarks/tracer.py reads its length."""
        return ()


class MetricsReport(NamedTuple):
    """All replications of one experiment plus the scenario that produced them."""

    scenario: Scenario
    results: list[ReplicationResult]


class ScenarioError(ValueError):
    """Raised when a scenario document is structurally or semantically invalid."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


# --------------------------------------------------------------------------
# validation

def expected_arrivals(scenario: Scenario) -> float:
    """Arrivals one replication expects: its horizon over the mean interarrival time."""
    return scenario.duration_s / scenario.mean_interarrival_s


def _member_of(enum):
    values = frozenset(enum)  # a str enum's members equal their values
    return lambda value: isinstance(value, str) and value in values


# What a scalar field accepts, and how a violation names it, keyed by annotation.
_TYPES = {
    "float": (lambda x: isinstance(x, (int, float)) and not isinstance(x, bool), "a number"),
    "int": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer"),
    "bool": (lambda x: isinstance(x, bool), "a bool"),
    "str": (lambda x: isinstance(x, str), "a string"),
    "Technology": (_member_of(Technology), f"one of {', '.join(Technology)}"),
    "ServiceKind": (_member_of(ServiceKind), f"one of {', '.join(ServiceKind)}"),
}

_POSITIVE, _NON_NEGATIVE, _OPEN_UNIT = (lambda x: x > 0), (lambda x: x >= 0), (lambda x: 0 < x < 1)
# The bound of each field that is checked on its own, and its violation kind.
_BOUNDS = {
    "id": (_POSITIVE, "non-positive operator id"),
    "capacity_kbps": (_POSITIVE, "non-positive capacity"),
    "jitter_ms": (_POSITIVE, "non-positive QoS constant"),
    "delay_ms": (_POSITIVE, "non-positive QoS constant"),
    "ber": (_OPEN_UNIT, "BER out of range"),
    "sp": (_POSITIVE, "non-positive price"),
    "cs": (_POSITIVE, "non-positive price"),
    "w_u": (_NON_NEGATIVE, "negative strategy weight"),
    "w_op": (_NON_NEGATIVE, "negative strategy weight"),
    "jitter_req": (_POSITIVE, "non-positive requirement"),
    "delay_req": (_POSITIVE, "non-positive requirement"),
    "ber_req": (_OPEN_UNIT, "BER requirement out of range"),
    "demand": (_POSITIVE, "non-positive demand rate"),
    "probability": (_NON_NEGATIVE, "negative probability"),
    "mean_interarrival_s": (_POSITIVE, "non-positive traffic parameter"),
    "mean_service_s": (_POSITIVE, "non-positive traffic parameter"),
    "duration_s": (_POSITIVE, "non-positive duration"),
    "replications": (lambda n: n >= 1, "replications out of range"),
}


def _check_weight_sum(violations, label, values):
    total = sum(values)
    if any(v < 0 for v in values):
        violations.append(f"weight-sum violation: {label} has a negative entry {tuple(values)}")
    elif abs(total - 1.0) > WEIGHT_SUM_TOL:
        violations.append(f"weight-sum violation: {label} sums to {total!r}, expected 1")


def _scalar_fields(scenario: Scenario):
    """Yield (label, field name, annotation, value) for every scalar of a scenario."""
    records = [(f"operators[{i}].", net) for i, net in enumerate(scenario.operators)]
    records += [(f"requirements[{kind}].", bounds)
                for kind, bounds in scenario.requirements.items()]
    records += [(f"profile_mix[{i}].", profile) for i, profile in enumerate(scenario.profile_mix)]
    records.append(("", scenario))
    for where, record in records:
        for f, value in _flat_fields(record):
            if f.type in _TYPES:
                yield where + f.name, f.name, f.type, value
    for (kind, tech), rate in scenario.demand.rates.items():
        yield f"demand[{kind}][{tech}]", "demand", "float", rate
    for kind, weights in scenario.qos_weights.items():
        for j, weight in enumerate(weights):
            yield f"qos_weights[{kind}][{j}]", "qos_weights", "float", weight


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every model invariant and return all violations found (empty list = valid)."""
    scalars = list(_scalar_fields(scenario))
    v: list[str] = [f"bad type: {label} = {value!r}, expected {_TYPES[annotation][1]}"
                    for label, _, annotation, value in scalars
                    if not _TYPES[annotation][0](value)]
    if v:  # as in the JSON codec, alone: every other check compares or sums values
        return v

    for label, name, annotation, value in scalars:
        # NaN fails every bound, so it is reported only as non-finite.  Unlike
        # math.isfinite, abs() also refuses an int too large for a float.
        if annotation == "float" and not abs(value) <= sys.float_info.max:
            v.append(f"non-finite number: {label} = {value!r}")
        elif name in _BOUNDS and not _BOUNDS[name][0](value):
            v.append(f"{_BOUNDS[name][1]}: {label} = {value!r}")

    if not scenario.operators:
        v.append("operators: list is empty, at least one operator is required")
    seen_ids = set()
    for i, net in enumerate(scenario.operators):
        if net.id in seen_ids:
            v.append(f"duplicate operator id: operators[{i}].id = {net.id}")
        seen_ids.add(net.id)
        if not 0 <= net.used_kbps <= net.capacity_kbps:
            v.append(f"load out of range: operators[{i}].used_kbps = {net.used_kbps!r} "
                     f"not in [0, {net.capacity_kbps!r}]")

    technologies = dict.fromkeys(net.technology for net in scenario.operators)
    for kind in ServiceKind:
        weights = scenario.qos_weights.get(kind)
        if weights is None:
            v.append(f"missing QoS weights: qos_weights[{kind}]")
        elif len(weights) != 4:
            v.append(f"weight-sum violation: qos_weights[{kind}] must have 4 entries")
        else:
            _check_weight_sum(v, f"qos_weights[{kind}]", weights)
        if kind not in scenario.requirements:
            v.append(f"missing requirements entry: requirements[{kind}]")
        v.extend(f"missing demand entry: demand[{kind}][{tech}]"
                 for tech in technologies if (kind, tech) not in scenario.demand.rates)

    for i, profile in enumerate(scenario.profile_mix):
        _check_weight_sum(v, f"profile_mix[{i}] preference weights",
                          (profile.prefs.w_qos, profile.prefs.w_price))
    total = sum(p.probability for p in scenario.profile_mix)
    if not scenario.profile_mix:
        v.append("profile_mix: list is empty")
    elif abs(total - 1.0) > WEIGHT_SUM_TOL:
        v.append(f"weight-sum violation: profile_mix probabilities sum to {total!r}")

    # The cap divides the timing fields, so it needs both positive and finite.  Every
    # replication draws its first arrival; an int compared with a float is exact.
    if all(0 < t <= sys.float_info.max for t in (scenario.duration_s,
                                                  scenario.mean_interarrival_s)):
        per_replication = max(expected_arrivals(scenario), 1.0)
        if max(scenario.replications, 1) > MAX_EXPECTED_ARRIVALS / per_replication:
            v.append(f"too many expected arrivals: {scenario.replications!r} replications x "
                     f"{per_replication:.3g} arrivals, above {MAX_EXPECTED_ARRIVALS}")
    if scenario.billing not in ("volume", "per_session"):
        v.append(f"unknown billing mode: {scenario.billing!r}")

    return v


def ensure_valid(scenario: Scenario) -> Scenario:
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioError(violations)
    return scenario


# --------------------------------------------------------------------------
# defaults

def default_profile_mix():
    """Uniform mix over {real-time, non-real-time} x {QoS-leaning, price-leaning}."""
    entries = []
    for kind in (ServiceKind.CONVERSATIONAL, ServiceKind.INTERACTIVE):
        for w_qos, w_price in ((0.7, 0.3), (0.4, 0.6)):
            entries.append(TrafficProfile(
                service=kind,
                prefs=UserPreferences(w_qos=w_qos, w_price=w_price),
                probability=0.25,
            ))
    return tuple(entries)


def default_scenario() -> Scenario:
    """The three-operator reference scenario: one UMTS network and two WLANs."""
    operators = (
        OperatorNetwork(id=1, name="Op1", technology=Technology.UMTS,
                        capacity_kbps=1700.0, jitter_ms=6.0, delay_ms=19.0, ber=1e-3,
                        sp=0.9, cs=0.9),
        OperatorNetwork(id=2, name="Op2", technology=Technology.WLAN,
                        capacity_kbps=11000.0, jitter_ms=10.0, delay_ms=30.0, ber=1e-5,
                        sp=0.1, cs=0.1),
        OperatorNetwork(id=3, name="Op3", technology=Technology.WLAN,
                        capacity_kbps=5500.0, jitter_ms=10.0, delay_ms=45.0, ber=1e-5,
                        sp=0.2, cs=0.2),
    )
    return Scenario(
        operators=operators,
        demand=DEFAULT_DEMAND,
        qos_weights=dict(DEFAULT_QOS_WEIGHTS),
        requirements=dict(DEFAULT_REQUIREMENTS),
        profile_mix=default_profile_mix(),
    )


# --------------------------------------------------------------------------
# JSON serialization: the dataclass fields are the schema (docs/scenario_schema.md)

def _flat_fields(record):
    """(field, value) pairs of a record, with a nested record's pairs in its place."""
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            yield from _flat_fields(value)
        else:
            yield f, value


def _record_to_dict(record) -> dict:
    return {f.name: value.value if isinstance(value, Enum) else value
            for f, value in _flat_fields(record)}


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "operators": [_record_to_dict(net) for net in scenario.operators],
        "demand": {
            kind.value: {
                tech.value: scenario.demand.rates[(kind, tech)]
                for tech in Technology if (kind, tech) in scenario.demand.rates
            }
            for kind in ServiceKind
        },
        "qos_weights": {
            kind.value: list(weights) for kind, weights in scenario.qos_weights.items()
        },
        "requirements": {
            kind.value: _record_to_dict(bounds) for kind, bounds in scenario.requirements.items()
        },
        "profile_mix": [_record_to_dict(p) for p in scenario.profile_mix],
        **{f.name: getattr(scenario, f.name) for f in fields(Scenario) if f.default is not MISSING},
    }


def _strict_float(raw) -> float:
    """A JSON number as a float; unlike float(), refuses "0.1", booleans and overflow."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"expected a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        raise ValueError("integer too large") from None


def _strict_int(raw) -> int:
    """An integral JSON number; unlike int(), refuses 2.7, "2" and booleans."""
    if not _strict_float(raw).is_integer():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _strict_bool(raw) -> bool:
    """A JSON boolean; unlike bool(), refuses "false", 0 and null."""
    if not isinstance(raw, bool):
        raise TypeError(f"expected true or false, got {raw!r}")
    return raw


def _strict_str(raw) -> str:
    """A JSON string; unlike str(), refuses 5 and null."""
    if not isinstance(raw, str):
        raise TypeError(f"expected a string, got {raw!r}")
    return raw


# Field annotations are strings under `from __future__ import annotations`.
_CASTS = {"float": _strict_float, "int": _strict_int, "bool": _strict_bool, "str": _strict_str,
          "Technology": Technology, "ServiceKind": ServiceKind}


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; structural problems raise ScenarioError."""
    problems: list[str] = []

    if not isinstance(doc, dict):
        raise ScenarioError(["scenario document must be a JSON object"])

    def expect(value, kind, label):
        """``value`` if it is a ``kind`` (dict or list), else a violation and an empty one."""
        if isinstance(value, kind):
            return value
        json_kind = "an object" if kind is dict else "an array"
        problems.append(f"{label}: expected {json_kind}, got {value!r}")
        return kind()

    def record(cls, entry, what, where, **given):
        """Build ``cls`` from the object ``entry``, casting each field by its annotation.

        Fields in ``given`` are used as they are and absent fields take the
        dataclass default.  A non-object entry or a bad or missing field is
        recorded as a violation, and then no record is built (None).
        """
        if not isinstance(entry, dict):
            problems.append(f"bad {what} {where[:-1]}: expected an object, got {entry!r}")
            return None
        found = len(problems)
        for f in fields(cls):
            if f.name in given:
                continue
            if f.name in entry:
                try:
                    given[f.name] = _CASTS[f.type](entry[f.name])
                except (TypeError, ValueError) as exc:
                    problems.append(f"bad {what} {where}{f.name}: {exc}")
            elif f.default is MISSING:
                problems.append(f"missing field: {where}{f.name}")
        return cls(**given) if len(problems) == found else None

    def reject_unknown(entry, where, *classes, spliced=()):
        """Report every key of the object ``entry`` that is no field of ``classes``."""
        if isinstance(entry, dict):
            known = {f.name for cls in classes for f in fields(cls)} - set(spliced)
            problems.extend(f"unknown field: {where}{key}" for key in entry if key not in known)

    operators = []
    for i, entry in enumerate(expect(doc.get("operators", []), list, "bad field operators")):
        if isinstance(entry, dict) and "name" not in entry:
            entry = {**entry, "name": f"Op{entry.get('id', i)}"}
        operators.append(record(OperatorNetwork, entry, "operator entry", f"operators[{i}]."))
        reject_unknown(entry, f"operators[{i}].", OperatorNetwork)

    rates = {}
    for kind_name, per_tech in expect(doc.get("demand", {}), dict, "bad field demand").items():
        where = f"demand[{kind_name}]"
        for tech_name, rate in expect(per_tech, dict, f"bad demand entry {where}").items():
            try:
                rates[(ServiceKind(kind_name), Technology(tech_name))] = _strict_float(rate)
            except (TypeError, ValueError) as exc:
                problems.append(f"bad demand entry {where}[{tech_name}]: {exc}")

    qos_weights = {}
    for kind_name, weights in expect(doc.get("qos_weights", {}), dict,
                                     "bad field qos_weights").items():
        try:
            qos_weights[ServiceKind(kind_name)] = tuple(_strict_float(w) for w in weights)
        except (TypeError, ValueError) as exc:
            problems.append(f"bad qos_weights[{kind_name}]: {exc}")

    requirements = {}
    for kind_name, entry in expect(doc.get("requirements", {}), dict,
                                   "bad field requirements").items():
        where = f"requirements[{kind_name}]."
        try:
            requirements[ServiceKind(kind_name)] = record(
                ClassRequirements, entry, "requirements entry", where)
        except ValueError as exc:
            problems.append(f"bad requirements entry {where[:-1]}: {exc}")
        reject_unknown(entry, where, ClassRequirements)

    profile_mix = []
    for i, entry in enumerate(expect(doc.get("profile_mix", []), list, "bad field profile_mix")):
        where = f"profile_mix[{i}]."
        prefs = (record(UserPreferences, entry, "profile entry", where)
                 if isinstance(entry, dict) else None)
        profile_mix.append(record(TrafficProfile, entry, "profile entry", where, prefs=prefs))
        # The preference weights sit in the profile object itself, not under "prefs".
        reject_unknown(entry, where, TrafficProfile, UserPreferences, spliced=("prefs",))

    scenario = record(Scenario, doc, "field", "", operators=tuple(operators),
                      demand=DemandTable(rates=rates), qos_weights=qos_weights,
                      requirements=requirements, profile_mix=tuple(profile_mix))
    reject_unknown(doc, "", Scenario)
    if problems:
        raise ScenarioError(problems)
    return scenario


def load_scenario(path) -> Scenario:
    """Read, parse and fully validate a scenario JSON file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"not valid JSON: {path}: {exc}"]) from exc
    return ensure_valid(scenario_from_dict(doc))


def save_scenario(scenario: Scenario, path):
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")
