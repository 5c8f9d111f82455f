"""Record the sessions each replication serves, from outside the engine.

A replication keeps no per-session record.  The engine books every served
session exactly once through ``analytics.accrue``, at its departure and
before ``run_replication`` returns, passing the replication's own ledgers;
wrapping that one function therefore recovers each replication's sessions.
The benchmark's trace check pins the same seam (accrue calls = served).
Experiments run with ``workers > 1`` are not seen: their workers do not
inherit the wrapper.
"""

import contextlib

from accessim import analytics


class SessionLog:
    def __init__(self):
        # id(ledgers) -> (ledgers, sessions); holding the ledgers keeps the id unique.
        self._by_ledgers = {}

    @contextlib.contextmanager
    def recording(self):
        """Capture every session accrued while the block runs."""
        accrue = analytics.accrue

        def recorded(session, networks, ledgers, *args, **kwargs):
            self._by_ledgers.setdefault(id(ledgers), (ledgers, []))[1].append(session)
            return accrue(session, networks, ledgers, *args, **kwargs)

        analytics.accrue = recorded
        try:
            yield self
        finally:
            analytics.accrue = accrue

    def __call__(self, result):
        """The sessions ``result``'s replication served, in departure order.

        Asserts that there is exactly one per served arrival, so a replication
        that ran outside ``recording`` cannot pass for one that served no one.
        """
        _, sessions = self._by_ledgers.get(id(result.ledgers), (None, []))
        assert len(sessions) == result.served_home + result.served_transferred
        return sessions


def run_logged(run, *args, **kwargs):
    """Call ``run(*args, **kwargs)`` while recording; return (its value, the log)."""
    log = SessionLog()
    with log.recording():
        value = run(*args, **kwargs)
    return value, log
