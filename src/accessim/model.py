"""Domain model: operators, service classes, traffic profiles and the scenario schema.

Everything here is data plus validation; the decision logic lives in
``selection`` and the event loop in ``engine``.  A Scenario is
serialized one-to-one to JSON (see docs/scenario_schema.md), so scenario
files can be edited by hand and replayed deterministically.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Mapping
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from enum import Enum
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

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


class _Record:
    """Equality, hash and repr by the fields in ``__slots__``, as a dataclass has them.

    The records outside the scenario schema are ``__slots__`` classes with a
    hand-written ``__init__`` rather than dataclasses: creating one costs
    microseconds at import where a dataclass costs about a millisecond, and
    Python specializes loads of its fields, which it does not do for a named
    tuple's.
    """

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({values})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields in slot order;
        # the default sets each slot, which a shared record refuses.
        return type(self), self._values()


class _SharedRecord(_Record):
    """A record shared between arrivals, read-only as a frozen dataclass is.

    Assigning or deleting a field raises ``FrozenInstanceError``, so ``__init__``
    sets each field with ``object.__setattr__``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class ServiceClass(_SharedRecord):
    """A QoS class: its kind plus the criteria weights used when scoring."""

    __slots__ = ("kind", "qos_weights")

    def __init__(self, kind: ServiceKind, qos_weights: tuple[float, float, float, float]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qos_weights", qos_weights)


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


class ServiceRequest(_SharedRecord):
    """What an arrival asks of admission: its home, service class, preferences and price.

    ``price_paid`` is what the client pays its home operator, unit/kByte.  A
    request is one of |operators| x |profiles| values, so every arrival of the
    same (home, profile) shares one object (``Scenario.arrival_requests``).
    """

    __slots__ = ("home_op", "service_class", "prefs", "price_paid")

    def __init__(self, home_op: int, service_class: ServiceClass, prefs: UserPreferences,
                 price_paid: float):
        init = object.__setattr__
        init(self, "home_op", home_op)
        init(self, "service_class", service_class)
        init(self, "prefs", prefs)
        init(self, "price_paid", price_paid)


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


class OperatorLedger(_Record):
    """Money flows of one operator, in price units (unit/kByte x kBytes).

    income_own          revenue from own clients served at home
    income_transferred  revenue from own clients served elsewhere (client still pays home)
    income_guests       settlement received for serving other operators' clients
    cost_paid           settlement paid out for own clients served elsewhere

    It is written on every departure, so it keeps ``object.__setattr__``; it is
    mutable, so it is unhashable.
    """

    __slots__ = ("income_own", "income_transferred", "income_guests", "cost_paid")
    __hash__ = None

    def __init__(self, income_own: float = 0.0, income_transferred: float = 0.0,
                 income_guests: float = 0.0, cost_paid: float = 0.0):
        self.income_own = income_own
        self.income_transferred = income_transferred
        self.income_guests = income_guests
        self.cost_paid = cost_paid

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


def _is(*classes):
    return lambda value: isinstance(value, classes)


# What a field accepts, how a violation names it, and how the JSON reader builds
# the value from what it accepts.  Scalars are keyed by annotation; a container
# has no cast, because the reader builds it and the walk checks it before entering.
_TYPES = {
    "float": (lambda x: isinstance(x, (int, float)) and not isinstance(x, bool), "a number",
              float),
    "int": (lambda x: isinstance(x, int) and not isinstance(x, bool), "an integer", int),
    "bool": (_is(bool), "a bool", bool),
    "str": (_is(str), "a string", str),
    "Technology": (_member_of(Technology), f"one of {', '.join(Technology)}", Technology),
    "ServiceKind": (_member_of(ServiceKind), f"one of {', '.join(ServiceKind)}", ServiceKind),
    "sequence": (_is(tuple, list), "a tuple or list", None),
    "mapping": (_is(Mapping), "a mapping", None),
    "OperatorNetwork": (_is(OperatorNetwork), "an OperatorNetwork", None),
    "ClassRequirements": (_is(ClassRequirements), "a ClassRequirements", None),
    "TrafficProfile": (_is(TrafficProfile), "a TrafficProfile", None),
    "UserPreferences": (_is(UserPreferences), "a UserPreferences", None),
    "DemandTable": (_is(DemandTable), "a DemandTable", None),
    "demand key": (lambda key: isinstance(key, tuple) and len(key) == 2,
                   "a (ServiceKind, Technology) pair", None),
}
# The sections of a scenario that hold entries: their container, what each entry
# is, and the words a document's entry of the wrong JSON type is reported with.
_SECTIONS = (("operators", "sequence", "OperatorNetwork", "bad operator entry "),
             ("requirements", "mapping", "ClassRequirements", "bad requirements entry "),
             ("profile_mix", "sequence", "TrafficProfile", "bad profile entry "),
             ("qos_weights", "mapping", "sequence", "bad "))

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
    "billing": (lambda b: b in ("volume", "per_session"), "unknown billing mode"),
}


def _fits(annotation, value):
    return _TYPES[annotation][0](value)


def _is_finite(number):
    """Unlike math.isfinite, also refuses an int too large for a float."""
    return abs(number) <= sys.float_info.max


def _check_weight_sum(violations, label, values):
    if not all(map(_is_finite, values)):
        return  # already reported as a non-finite number
    total = sum(values)
    if any(v < 0 for v in values):
        violations.append(f"weight-sum violation: {label} has a negative entry {tuple(values)}")
    elif abs(total - 1.0) > WEIGHT_SUM_TOL:
        violations.append(f"weight-sum violation: {label} sums to {total!r}, expected 1")


def _scalar_fields(scenario: Scenario):
    """Yield (label, field name, annotation, value) for every scalar of a scenario.

    Each container is checked before the walk enters it: one that is not what
    its field holds is yielded once, under its ``_TYPES`` key, and skipped.  So
    is each mapping key that is not a ``ServiceKind`` (for ``demand``, a class
    that is not one is yielded once however many technologies it lists).
    """
    records, qos_weights = [], []
    for name, container, entry, _ in _SECTIONS:
        section = getattr(scenario, name)
        if not _fits(container, section):
            yield name, name, container, section
            continue
        mapping = container == "mapping"
        for key, value in section.items() if mapping else enumerate(section):
            if mapping and not _fits("ServiceKind", key):
                yield f"{name}[{key}]", name, "ServiceKind", key
            elif not _fits(entry, value):
                yield f"{name}[{key}]", name, entry, value
            elif name == "qos_weights":
                qos_weights.append((f"{name}[{key}]", value))
            else:
                records.append((f"{name}[{key}].", value))
    records.append(("", scenario))
    for where, record in records:
        for f, value in _flat_fields(record):
            # A scalar, or a record (the demand table, a profile's prefs) that is not one.
            if f.type in _TYPES and (_TYPES[f.type][2] or not _fits(f.type, value)):
                yield where + f.name, f.name, f.type, value
    rates = scenario.demand.rates if _fits("DemandTable", scenario.demand) else {}
    if not _fits("mapping", rates):
        yield "demand.rates", "demand", "mapping", rates
        rates = {}
    bad_kinds = set()
    for key, rate in rates.items():
        if not _fits("demand key", key):
            yield "demand.rates key", "demand", "demand key", key
        elif not _fits("ServiceKind", key[0]):
            if key[0] not in bad_kinds:
                bad_kinds.add(key[0])
                yield f"demand[{key[0]}]", "demand", "ServiceKind", key[0]
        elif not _fits("Technology", key[1]):
            yield f"demand[{key[0]}][{key[1]}]", "demand", "Technology", key[1]
        else:
            yield f"demand[{key[0]}][{key[1]}]", "demand", "float", rate
    for where, weights in qos_weights:
        for j, weight in enumerate(weights):
            yield f"{where}[{j}]", "qos_weights", "float", weight


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every model invariant and return all violations found (empty list = valid)."""
    scalars = list(_scalar_fields(scenario))
    v: list[str] = [f"bad type: {label} = {value!r}, expected {_TYPES[annotation][1]}"
                    for label, _, annotation, value in scalars if not _fits(annotation, value)]
    if v:  # alone: every other check compares or sums values
        return v

    for label, name, annotation, value in scalars:
        # NaN fails every bound, so it is reported only as non-finite, and the
        # checks that span fields below skip every non-finite value.
        if annotation == "float" and not _is_finite(value):
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
        used, capacity = net.used_kbps, net.capacity_kbps
        if _is_finite(used) and _is_finite(capacity) and not 0 <= used <= capacity:
            v.append(f"load out of range: operators[{i}].used_kbps = {used!r} "
                     f"not in [0, {capacity!r}]")

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
    probabilities = [p.probability for p in scenario.profile_mix]
    total = sum(probabilities)
    if not scenario.profile_mix:
        v.append("profile_mix: list is empty")
    elif all(map(_is_finite, probabilities)) and abs(total - 1.0) > WEIGHT_SUM_TOL:
        v.append(f"weight-sum violation: profile_mix probabilities sum to {total!r}")

    # The cap divides the timing fields, so it needs both positive and finite.  Every
    # replication draws its first arrival; an int compared with a float is exact.
    if all(0 < t <= sys.float_info.max for t in (scenario.duration_s,
                                                  scenario.mean_interarrival_s)):
        per_replication = max(expected_arrivals(scenario), 1.0)
        if max(scenario.replications, 1) > MAX_EXPECTED_ARRIVALS / per_replication:
            v.append(f"too many expected arrivals: {scenario.replications!r} replications x "
                     f"{per_replication:.3g} arrivals, above {MAX_EXPECTED_ARRIVALS}")
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

@cache
def _nested_record(annotation):
    """The schema record class a field of this annotation holds in its parent's object, or None."""
    cls = globals().get(annotation)
    return cls if is_dataclass(cls) else None


def _flat_fields(record):
    """(field, value) pairs of a record, with a nested record of its field's type in its place."""
    for f in fields(record):
        value = getattr(record, f.name)
        if type(value) is _nested_record(f.type):
            yield from _flat_fields(value)
        else:
            yield f, value


def scenario_to_dict(value):
    """A scenario, or any part of one, as the JSON data of docs/scenario_schema.md."""
    if is_dataclass(value):
        return {f.name: scenario_to_dict(item) for f, item in _flat_fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, DemandTable):
        return {kind.value: {tech.value: value.rates[kind, tech]
                             for tech in Technology if (kind, tech) in value.rates}
                for kind in ServiceKind}
    if isinstance(value, Mapping):
        return {scenario_to_dict(key): scenario_to_dict(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [scenario_to_dict(item) for item in value]
    return value


def _read(annotation, raw):
    """A JSON value as a field of type ``annotation`` when ``_TYPES`` accepts it, else as it is.

    JSON has one number type, so an integral float is read as an int where an
    int is due.  ``validate_scenario`` names a value left as it is; an int too
    large for a float stays an int, which it reports as a non-finite number.
    """
    if annotation == "int" and isinstance(raw, float) and raw.is_integer():
        return int(raw)
    accepts, _, cast = _TYPES[annotation]
    # float() of an int beyond the float range would overflow.
    return cast(raw) if accepts(raw) and (cast is not float or _is_finite(raw)) else raw


def _expect(value, kind, label, problems):
    """``value`` if it is a ``kind`` (dict or list), else None and a violation under ``label``."""
    if isinstance(value, kind):
        return value
    problems.append(f"{label}: expected {'an object' if kind is dict else 'an array'}, "
                    f"got {value!r}")
    return None


def _read_record(cls, entry, where, problems, given):
    """``cls`` read from the JSON object ``entry``, or None when a field is missing.

    Each field is popped from a copy of ``entry`` as it is read, and a schema
    record that ``cls`` holds is read from the same copy, as ``_flat_fields``
    writes it.  Fields in ``given`` are taken as they are, an absent field
    takes its default, and every key left over is an unknown field.
    """
    rest, found = dict(entry), len(problems)

    def read(cls, values):
        for f in fields(cls):
            nested = _nested_record(f.type)
            if f.name in values:
                continue
            if nested:
                values[f.name] = read(nested, {})
            elif f.name in rest:
                values[f.name] = _read(f.type, rest.pop(f.name))
            elif f.default is MISSING:
                problems.append(f"missing field: {where}{f.name}")
        return cls(**values) if len(problems) == found else None

    record = read(cls, dict(given))
    problems.extend(f"unknown field: {where}{key}" for key in rest)
    return record


def scenario_from_dict(doc: dict) -> Scenario:
    """Read a Scenario from a parsed JSON document and validate it; raise ScenarioError.

    What only a document can get wrong is reported alone: a container of the
    wrong JSON type, a missing field or an unknown one.  Otherwise
    ``validate_scenario`` judges every value and key, as it does for a
    scenario built in Python.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(["scenario document must be a JSON object"])
    doc, problems, given = dict(doc), [], {}
    for name, container, entry, words in _SECTIONS:
        json_type, cls = (dict if container == "mapping" else list), _nested_record(entry)
        section = (_expect(doc.pop(name, json_type()), json_type, f"bad field {name}", problems)
                   or json_type())
        read = {}
        for key, raw in section.items() if json_type is dict else enumerate(section):
            where = f"{name}[{key}]"
            if _expect(raw, dict if cls else list, words + where, problems) is None:
                continue
            if name == "operators" and "name" not in raw:
                raw = {**raw, "name": f"Op{_read('int', raw.get('id'))}"}
            read[_read("ServiceKind", key) if json_type is dict else key] = (
                _read_record(cls, raw, f"{where}.", problems, {}) if cls
                else tuple(_read("float", w) for w in raw))
        given[name] = read if json_type is dict else tuple(read.values())

    # A document nests demand rates by class; a DemandTable keys them by pair.
    rates = {}
    demand = _expect(doc.pop("demand", {}), dict, "bad field demand", problems) or {}
    for kind, per_tech in demand.items():
        per_tech = _expect(per_tech, dict, f"bad demand entry demand[{kind}]", problems) or {}
        for tech, rate in per_tech.items():
            rates[_read("ServiceKind", kind), _read("Technology", tech)] = _read("float", rate)

    scenario = _read_record(Scenario, doc, "", problems, {**given, "demand": DemandTable(rates)})
    if problems:
        raise ScenarioError(problems)
    return ensure_valid(scenario)


def load_scenario(path) -> Scenario:
    """Read, parse and fully validate a scenario JSON file in UTF-8, -16 or -32."""
    try:
        doc = json.loads(Path(path).read_bytes())  # json detects the encoding, not the locale
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ScenarioError([f"not valid JSON: {path}: {exc}"]) from exc
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path):
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")
