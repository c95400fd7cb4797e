"""Discrete-event simulation kernel.

This subpackage provides the simulation substrate on which the stream
processing engine runs: a deterministic event-driven :class:`Simulator`
with a virtual clock, cancellable :class:`Event` handles, and seeded
random-variate streams for service times, interarrival times and other
stochastic model inputs.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Event": "repro.simulation.events",
    "Simulator": "repro.simulation.kernel",
    "FaultInjector": "repro.simulation.faults",
    "FaultPlan": "repro.simulation.faults",
    "FaultRecord": "repro.simulation.faults",
    "MeasurementDropout": "repro.simulation.faults",
    "ServiceSpike": "repro.simulation.faults",
    "TaskCrash": "repro.simulation.faults",
    "WorkerLoss": "repro.simulation.faults",
    "ActuationFailure": "repro.simulation.faults",
    "ActuationDelay": "repro.simulation.faults",
    "MigrationFailure": "repro.simulation.faults",
    "Distribution": "repro.simulation.randomness",
    "Deterministic": "repro.simulation.randomness",
    "Exponential": "repro.simulation.randomness",
    "Gamma": "repro.simulation.randomness",
    "LogNormal": "repro.simulation.randomness",
    "Uniform": "repro.simulation.randomness",
    "RandomStreams": "repro.simulation.randomness",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
