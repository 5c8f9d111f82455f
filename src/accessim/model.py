"""Domain model: operators, service classes, traffic profiles and the scenario schema.

Everything here is data plus validation; the decision logic lives in
``selection`` and the event loop in ``engine``.  A Scenario is
serialized one-to-one to JSON (see docs/scenario_schema.md), so scenario
files can be edited by hand and replayed deterministically.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, namedtuple
from collections.abc import Mapping
from enum import Enum
from functools import cached_property
from pathlib import Path

WEIGHT_SUM_TOL = 1e-9
# Most arrivals an experiment may expect: at a few µs each, under a minute of work.
MAX_EXPECTED_ARRIVALS = 10_000_000
# Most arrivals a grid records to replay in every cell (``engine.Tape``): each costs
# 24 bytes (its gap's log, its request and a service uniform), so 24 MB.  Above it, every
# cell draws live, in memory that does not grow with the replications.
MAX_TAPE_DRAWS = 1_000_000
# Most operators a scenario may hold: the admission table compiles up to every other
# operator per operator and class, about 0.1 s of work at this count.
MAX_OPERATORS = 100


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


class _Missing:
    def __repr__(self):
        return "MISSING"


MISSING = _Missing()  # the default of a record field that has none


class _Record:
    """Fields, construction, equality, hash and repr, as a dataclass has them.

    A record's fields are its annotated class body, with class-level defaults.
    They are read once, when the class is created: microseconds, where a
    dataclass or a ``typing.NamedTuple`` costs up to a millisecond at import.
    The ledger alone writes its own ``__init__`` over ``__slots__``, so that a
    write to a misspelt field raises; its fields are that ``__init__``'s
    annotated parameters.
    """

    __slots__ = ()
    _fields = ()  # (name, annotation, default or MISSING) per field, in declaration order

    def __init_subclass__(cls):
        init = vars(cls).get("__init__")
        notes = (init or cls).__annotations__
        defaults = (dict(zip([*notes][::-1], (init.__defaults__ or ())[::-1])) if init
                    else vars(cls))
        cls._fields = tuple((name, note, defaults.get(name, MISSING))
                            for name, note in notes.items())

    def __init__(self, *args, **kwargs):
        # object.__setattr__ passes a frozen record's guard and keeps the values inline.
        fields, name = self._fields, type(self).__name__
        for i, (field, _, default) in enumerate(fields):
            value = args[i] if i < len(args) else kwargs.pop(field, default)
            if value is MISSING:
                raise TypeError(f"{name}() missing argument {field!r}")
            object.__setattr__(self, field, value)
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{name}() got unexpected arguments {[*args[len(fields):], *kwargs]}")

    def _values(self):
        return tuple(getattr(self, name) for name, _, _ in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name, _, _ in self._fields)
        return f"{type(self).__name__}({values})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: a frozen record refuses the default.
        return type(self), self._values()


class _FrozenRecord(_Record):
    """A read-only record: assigning or deleting a field raises ``FrozenInstanceError``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # loaded only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def fields(record):
    """(name, annotation string, default or ``MISSING``) of each field of a record or its class."""
    return record._fields


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, built by ``__init__``; a TypeError on a non-field."""
    return type(record)(**{name: getattr(record, name) for name, _, _ in fields(record)} | changes)


class ServiceClass(_FrozenRecord):
    """A QoS class: its kind plus the criteria weights used when scoring."""

    kind: ServiceKind
    qos_weights: tuple[float, float, float, float]


class ClassRequirements(_FrozenRecord):
    """Per-class QoS thresholds; bandwidth is technology-dependent so it lives in DemandTable."""

    jitter_req: float
    delay_req: float
    ber_req: float


class OperatorNetwork(_Record):
    """One operator and the single radio access network it manages.

    ``used_kbps`` is the only mutable piece of simulation state; the engine
    owns it and everything else stays constant during a run.
    """

    __hash__ = None  # mutable, so unhashable

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


class ServiceRequest(_FrozenRecord):
    """What an arrival asks of admission: its home, service class, profile's weights and price.

    ``price_paid`` is what the client pays its home operator, unit/kByte.  A
    request is one of |operators| x |profiles| values, so every arrival of the
    same (home, profile) shares one object (``Scenario.arrival_requests``).
    """

    home_op: int
    service_class: ServiceClass
    w_qos: float
    w_price: float
    price_paid: float


class DemandTable(dict):
    """Constant bit rate per service kind and technology, kb/s: ``{kind: {technology: rate}}``."""

    def rate(self, kind, technology):
        # Both enums are str-valued, so a member and its value find the same key.
        return self[kind][technology]


class TrafficProfile(_FrozenRecord):
    """One cell of the arrival mix: a service kind, its QoS and price weights, a probability."""

    service: ServiceKind
    w_qos: float
    w_price: float
    probability: float


Session = namedtuple("Session", "request serving_op rate_kbps start_s duration_s")
Session.__doc__ = "An admitted request bound to a serving operator for a drawn duration."


class Scenario(_FrozenRecord):
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
    def arrival_requests(self) -> tuple[tuple[ServiceRequest, ...], ...]:
        """The shared request of each (home operator, profile), built once per scenario.

        Indexed ``[operator index][profile index]``, both in scenario order; a
        client pays its home operator's ``sp``; every home shares a profile's service class.
        """
        profiles = [(self.service_class(p.service), p.w_qos, p.w_price) for p in self.profile_mix]
        return tuple(tuple(ServiceRequest(net.id, *profile, net.sp) for profile in profiles)
                     for net in self.operators)


class OperatorLedger(_Record):
    """Money flows of one operator, in price units (unit/kByte x kBytes).

    income_own          revenue from own clients served at home
    income_transferred  revenue from own clients served elsewhere (client still pays home)
    income_guests       settlement received for serving other operators' clients
    cost_paid           settlement paid out for own clients served elsewhere

    It is written on every departure, so it keeps ``object.__setattr__``; it is
    mutable, so it is unhashable.  It is the one record that writes its own
    ``__init__``, over ``__slots__``, so that a write to a misspelt field raises.
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


class ReplicationResult(_FrozenRecord):
    """Raw outcome of a single replication; ``analytics.scope_rows`` derives its metrics.

    ``counts`` maps every slot key of the replication's admission table,
    ``(home, serving, kind)`` with ``serving`` None for a block, to the
    arrivals that took that decision, zeros included.  Every arrival lands in
    exactly one slot, so each total below is one sum over it.
    """

    seed: int
    counts: dict[tuple[int, int | None, ServiceKind], int]
    ledgers: dict[int, OperatorLedger]

    @property
    def arrivals(self):
        return sum(self.counts.values())

    @property
    def blocked(self):
        return sum(n for (_, serving, _), n in self.counts.items() if serving is None)

    @property
    def served_home(self):
        return sum(n for (home, serving, _), n in self.counts.items() if serving == home)

    @property
    def served_transferred(self):
        return sum(n for (home, serving, _), n in self.counts.items()
                   if serving is not None and serving != home)

    @property
    def sessions(self):
        """Always empty: no session is kept.  benchmarks/tracer.py reads its length."""
        return ()


class MetricsReport(_FrozenRecord):
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
    # Exactly an int, the one integer type a report cell takes: a bool or an IntEnum is refused.
    "int": (lambda x: type(x) is int, "an integer", int),
    "bool": (_is(bool), "a bool", bool),
    "str": (_is(str), "a string", str),
    "Technology": (_member_of(Technology), f"one of {', '.join(Technology)}", Technology),
    "ServiceKind": (_member_of(ServiceKind), f"one of {', '.join(ServiceKind)}", ServiceKind),
    "sequence": (_is(tuple, list), "a tuple or list", None),
    "mapping": (_is(Mapping), "a mapping", None),
    "OperatorNetwork": (_is(OperatorNetwork), "an OperatorNetwork", None),
    "ClassRequirements": (_is(ClassRequirements), "a ClassRequirements", None),
    "TrafficProfile": (_is(TrafficProfile), "a TrafficProfile", None),
    "DemandTable": (_is(DemandTable), "a DemandTable", None),
}
# The sections of a scenario that hold entries, keyed by position or by class:
# their container, what each entry is, and the words a document's entry of the
# wrong JSON type is reported with.
_SECTIONS = (("operators", "sequence", "OperatorNetwork", "bad operator entry "),
             ("requirements", "mapping", "ClassRequirements", "bad requirements entry "),
             ("profile_mix", "sequence", "TrafficProfile", "bad profile entry "),
             ("qos_weights", "mapping", "sequence", "bad "),
             ("demand", "DemandTable", "mapping", "bad demand entry "))

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


def _weight_total(values):
    """The sum of finite weights, or their float sum (``±inf``) where ints sum past any float."""
    try:
        total = sum(values)
        float(total)  # raises, as the sum itself may, for an int no float can hold
        return total
    except OverflowError:
        return sum(map(float, values))


def _check_weight_sum(violations, label, values):
    if not all(map(_is_finite, values)):
        return  # already reported as a non-finite number
    total = _weight_total(values)
    if any(v < 0 for v in values):
        violations.append(f"weight-sum violation: {label} has a negative entry {tuple(values)}")
    elif abs(total - 1.0) > WEIGHT_SUM_TOL:
        violations.append(f"weight-sum violation: {label} sums to {total!r}, expected 1")


def _entries(name, mapping, entry, section):
    """(label, entry, violation or None) for each entry of a section, in its order.

    A mapping's key that is not a ``ServiceKind`` is the violation, and
    otherwise an entry that is not an ``entry``.
    """
    for key, value in section.items() if mapping else enumerate(section):
        label = f"{name}[{key}]"
        if mapping and not _fits("ServiceKind", key):
            yield label, value, (label, name, "ServiceKind", key)
        else:
            yield label, value, None if _fits(entry, value) else (label, name, entry, value)


def _scalar_fields(scenario: Scenario):
    """Yield (label, field name, annotation, value) for every scalar of a scenario.

    A label is the value's path, in the scenario and in its file.  A container
    that is not what its field holds is yielded once, under its ``_TYPES`` key,
    and not entered; so is a key that is not a ``ServiceKind`` (in a ``demand``
    class, a ``Technology``).  Demand's keys and rates follow every record's
    scalars, in the table's order, and the QoS weights come last.
    """
    records, qos_weights = [], []
    for name, container, entry, _ in _SECTIONS:
        if name == "demand":
            continue  # its type is checked with the scenario's fields, its entries after them
        section = getattr(scenario, name)
        if not _fits(container, section):
            yield name, name, container, section
            continue
        for label, value, bad in _entries(name, container == "mapping", entry, section):
            if bad:
                yield bad
            elif name == "qos_weights":
                qos_weights.append((label, value))
            else:
                records.append((f"{label}.", value))
    for where, record in [*records, ("", scenario)]:
        for name, annotation, _ in fields(record):
            value = getattr(record, name)
            # A scalar, or the demand table when it is not one.
            if annotation in _TYPES and (_TYPES[annotation][2] or not _fits(annotation, value)):
                yield where + name, name, annotation, value
    demand = scenario.demand if _fits("DemandTable", scenario.demand) else {}
    for where, rates, bad in _entries("demand", True, "mapping", demand):
        if bad:
            yield bad
            continue
        for tech, rate in rates.items():
            if _fits("Technology", tech):
                yield f"{where}[{tech}]", "demand", "float", rate
            else:
                yield f"{where}[{tech}]", "demand", "Technology", tech
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
        elif name == "mean_interarrival_s" and not _is_finite(1.0 / value):
            # An infinite arrival rate makes every gap zero: time never reaches the horizon.
            v.append(f"traffic parameter too small: {label} = {value!r}")

    if not scenario.operators:
        v.append("operators: list is empty, at least one operator is required")
    elif len(scenario.operators) > MAX_OPERATORS:
        v.append(f"too many operators: operators has {len(scenario.operators)} entries, "
                 f"above {MAX_OPERATORS}")
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
                 for tech in technologies if tech not in scenario.demand.get(kind, ()))

    for i, profile in enumerate(scenario.profile_mix):
        _check_weight_sum(v, f"profile_mix[{i}] preference weights",
                          (profile.w_qos, profile.w_price))
    probabilities = [p.probability for p in scenario.profile_mix]
    if not scenario.profile_mix:
        v.append("profile_mix: list is empty")
    elif all(map(_is_finite, probabilities)):
        total = _weight_total(probabilities)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            v.append(f"weight-sum violation: profile_mix probabilities sum to {total!r}")

    # The cap divides the timing fields, so it needs both positive and finite.  Every
    # replication draws its first arrival; an int compared with a float is exact.
    if all(0 < t <= sys.float_info.max for t in (scenario.duration_s,
                                                  scenario.mean_interarrival_s)):
        per_replication = max(expected_arrivals(scenario), 1.0)
        if max(scenario.replications, 1) > MAX_EXPECTED_ARRIVALS / per_replication:
            v.append(f"too many expected arrivals: {scenario.replications!r} replications x "
                     f"{per_replication:.3g} arrivals, above {MAX_EXPECTED_ARRIVALS}")
        elif _money_overflows(scenario):  # its bound counts on the cap, so not past it
            top = max(price for net in scenario.operators for price in (net.sp, net.cs))
            v.append(f"money out of range: prices up to {top!r} could sum past the float "
                     "range in a report")
    return v


def _money_overflows(scenario: Scenario) -> bool:
    """Whether twice the largest money total a report cell can hold passes the float range.

    Read off ``analytics.accrue``: a session books its units (1 under
    per-session billing, else its kBytes) at the home's ``sp`` into the
    home's income and, when transferred, at the serving ``cs`` into both the
    home's ``cost_paid`` and the server's ``income_guests``, so at most
    ``max sp + 2 max cs`` per unit over all ledgers, which bounds every money
    cell, a profit and a global sum too.  Its kBytes, ``rate * duration / 8``
    cut at the horizon, are at most the largest demand rate times
    ``duration_s / 8``.  A mean sums every replication before it divides, so
    the total runs over all of an experiment's sessions, no more than its
    arrivals; the arrival cap holds their expected count, over every
    replication, to ``MAX_EXPECTED_ARRIVALS``, and a Poisson count reaches
    twice its cap with probability below ``exp(-0.38 * MAX_EXPECTED_ARRIVALS)``.
    The total is doubled again for rounding and the 5% margin each side of a
    chart's axis.  False while a price, a rate or the billing is reported
    already; ``duration_s`` is checked by the caller.
    """
    ops = scenario.operators
    rates = [rate for rates in scenario.demand.values() for rate in rates.values()]
    prices = [price for net in ops for price in (net.sp, net.cs)]
    if not (rates and prices and scenario.billing in ("volume", "per_session")
            and all(0 < x <= sys.float_info.max for x in (*rates, *prices))):
        return False
    per_unit = max(net.sp for net in ops) + 2.0 * max(net.cs for net in ops)
    units = 1.0 if scenario.billing == "per_session" else max(rates) * scenario.duration_s / 8.0
    return not _is_finite(2.0 * per_unit * units * 2.0 * MAX_EXPECTED_ARRIVALS)


def ensure_valid(scenario: Scenario) -> Scenario:
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioError(violations)
    return scenario


# --------------------------------------------------------------------------
# defaults

def default_scenario() -> Scenario:
    """The three-operator reference scenario: one UMTS network and two WLANs.

    Every call builds its own tables, so a change to one scenario's demand or
    weights reaches no other.
    """
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
    conversational, interactive = ServiceKind.CONVERSATIONAL, ServiceKind.INTERACTIVE
    return Scenario(
        operators=operators,
        demand=DemandTable({
            conversational: {Technology.UMTS: 256.0, Technology.WLAN: 256.0},
            interactive: {Technology.UMTS: 512.0, Technology.WLAN: 1024.0},
        }),
        # Per-class criteria weights in the order (bandwidth, jitter, delay, BER).
        qos_weights={
            conversational: (0.05, 0.45, 0.45, 0.05),
            interactive: (0.16, 0.04, 0.16, 0.64),
        },
        requirements={
            conversational: ClassRequirements(jitter_req=10.0, delay_req=100.0, ber_req=1e-3),
            interactive: ClassRequirements(jitter_req=20.0, delay_req=150.0, ber_req=1e-5),
        },
        # Uniform mix over {real-time, non-real-time} x {QoS-leaning, price-leaning}.
        profile_mix=tuple(
            TrafficProfile(service=kind, w_qos=w_qos, w_price=w_price, probability=0.25)
            for kind in (conversational, interactive)
            for w_qos, w_price in ((0.7, 0.3), (0.4, 0.6))),
    )


# --------------------------------------------------------------------------
# JSON serialization: the schema records' fields are the schema (docs/scenario_schema.md)

def scenario_to_dict(value):
    """A scenario, or any part of one, as the JSON data of docs/scenario_schema.md."""
    if isinstance(value, _Record):
        return {name: scenario_to_dict(getattr(value, name)) for name, _, _ in fields(value)}
    if isinstance(value, Enum):
        return value.value
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


class _Object(dict):
    """A JSON object as ``load_scenario`` parses it; ``repeated`` lists the keys it repeats."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.repeated = ([key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
                         if len(self) < len(pairs) else ())


def _repeats(obj, prefix, suffix=""):
    """A violation for each key that the parsed JSON object ``obj`` repeats."""
    return [f"duplicate field: {prefix}{key}{suffix}" for key in getattr(obj, "repeated", ())]


def _read_record(cls, entry, where, problems, given=()):
    """``cls`` read from the JSON object ``entry``, or None when a field is missing.

    Fields in ``given`` are taken as they are, an absent field takes its
    default, and every key left over is an unknown field.
    """
    rest, values, found = dict(entry), dict(given), len(problems)
    for name, annotation, default in fields(cls):
        if name in rest:
            values[name] = _read(annotation, rest.pop(name))
        elif default is MISSING and name not in values:
            problems.append(f"missing field: {where}{name}")
    record = cls(**values) if len(problems) == found else None
    problems.extend(f"unknown field: {where}{key}" for key in rest)
    return record


def scenario_from_dict(doc: dict) -> Scenario:
    """Read a Scenario from a parsed JSON document and validate it; raise ScenarioError.

    What only a document can get wrong is reported alone: a container of the
    wrong JSON type, or a missing, unknown or (in a parsed file) repeated
    field.  Otherwise ``validate_scenario`` judges every value and key, as it
    does for a scenario built in Python.
    """
    if not isinstance(doc, dict):
        raise ScenarioError(["scenario document must be a JSON object"])
    doc, problems, given = dict(doc), _repeats(doc, ""), {}
    for name, container, entry, words in _SECTIONS:
        json_type = list if container == "sequence" else dict
        section = (_expect(doc.pop(name, json_type()), json_type, f"bad field {name}", problems)
                   or json_type())
        problems.extend(_repeats(section, f"{name}[", "]"))
        read = {}
        for key, raw in section.items() if json_type is dict else enumerate(section):
            where = f"{name}[{key}]"
            if _expect(raw, list if entry == "sequence" else dict, words + where, problems) is None:
                continue
            if entry == "sequence":
                value = tuple(_read("float", w) for w in raw)
            elif entry == "mapping":
                problems.extend(_repeats(raw, f"{where}[", "]"))
                value = {_read("Technology", tech): _read("float", rate)
                         for tech, rate in raw.items()}
            else:
                problems.extend(_repeats(raw, f"{where}."))
                if name == "operators" and "name" not in raw:
                    raw = {**raw, "name": f"Op{_read('int', raw.get('id'))}"}
                value = _read_record(globals()[entry], raw, f"{where}.", problems)
            read[_read("ServiceKind", key) if json_type is dict else key] = value
        given[name] = (tuple(read.values()) if json_type is list
                       else DemandTable(read) if container == "DemandTable" else read)

    scenario = _read_record(Scenario, doc, "", problems, given)
    if problems:
        raise ScenarioError(problems)
    return ensure_valid(scenario)


def load_scenario(path) -> Scenario:
    """Read, parse and fully validate a scenario JSON file in UTF-8, -16 or -32."""
    try:
        # json detects the encoding, not the locale.
        doc = json.loads(Path(path).read_bytes(), object_pairs_hook=_Object)
    # A JSONDecodeError, a UnicodeDecodeError or arrays or objects nested too deep.
    except (ValueError, RecursionError) as exc:
        raise ScenarioError([f"not valid JSON: {path}: {exc}"]) from exc
    return scenario_from_dict(doc)


def save_scenario(scenario: Scenario, path):
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")
