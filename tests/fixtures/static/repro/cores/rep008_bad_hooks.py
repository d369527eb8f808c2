"""Fixture: observation/stepping hook signature drift (REP008).

Uses an intermediate subclass so the checker's transitive base-class
resolution is exercised too: ``BadHooks`` reaches Component only through
``IntermediateComponent``.
"""

from repro.sim.component import Component


class IntermediateComponent(Component):
    """Conforming middle layer."""


class BadHooks(IntermediateComponent):
    def queues(self, deep):  # extra required parameter
        return ()

    def counters(self, now, window):  # base takes only self
        return ()

    def step(self):  # dropped the cycle argument
        return None
