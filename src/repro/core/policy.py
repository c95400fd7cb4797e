"""The first-class scaling-policy API: protocol, registry, factory.

Scaling policies used to plug into :class:`~repro.core.elastic_scaler.
ElasticScaler` through an informal duck-typed ``decide(summary, current)``
convention. This module makes the contract formal and the policies
*addressable*:

* :class:`ScalingPolicy` — the runtime-checkable protocol every policy
  satisfies: a ``name``, ``decide(summary, current_parallelism) ->
  ScalingDecision`` and ``knobs()`` (the declared tuning parameters, for
  manifests and provenance). Policies *may* additionally implement the
  optional ``observe(ctx)`` hook, called by the scaler after every
  active round with a :class:`PolicyRoundContext`.
* A string-keyed **registry**: :func:`register_policy` binds a factory
  ``(context, **knobs) -> policy`` to a canonical name (plus aliases),
  :func:`create_policy` constructs by name, :func:`registered_policies`
  enumerates. Construction receives a :class:`PolicyContext` — the job's
  constraints and its elastic vertices. A policy's parameters are its
  knobs and nothing else: the constructor's defaults are the only
  defaults, so a spec alone rebuilds the policy, which is what puts
  policies on a sweep axis.
* :class:`PolicySpec` / :func:`parse_policy_spec` — the one shared
  parser behind ``--policy NAME[:key=val,...]`` on the ``run`` / ``chaos``
  / ``sweep`` CLIs, ``PipelineBuilder.scale(...)`` and sweep grid files.

Built-in policies self-register on import; :func:`ensure_builtin_policies`
performs the deferred imports (avoiding module cycles) and is called by
every registry lookup.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # runtime imports would cycle: policies import this module
    from repro.core.constraints import LatencyConstraint
    from repro.core.scale_reactively import ScalingDecision
    from repro.graphs.job_graph import JobGraph, JobVertex
    from repro.qos.summary import GlobalSummary

#: the default policy name — the paper's strategy
DEFAULT_POLICY = "scale-reactively"


@runtime_checkable
class ScalingPolicy(Protocol):
    """The formal contract every scaling policy satisfies.

    ``name`` is the canonical registry key the instance was built for;
    ``decide`` maps one adjustment interval's global summary (plus the
    current target parallelism per vertex) to a
    :class:`~repro.core.scale_reactively.ScalingDecision`; ``knobs``
    returns the declared tuning parameters as a JSON-serializable dict
    (recorded in manifests, never consulted by the engine).
    """

    name: str

    def decide(
        self, summary: GlobalSummary, current_parallelism: Dict[str, int]
    ) -> ScalingDecision:
        """One reactive round: summary in, scaling decision out."""
        ...

    def knobs(self) -> Dict[str, object]:
        """The policy's declared tuning parameters (for provenance)."""
        ...


class PolicyRoundContext:
    """What the optional ``observe`` hook sees after each active round."""

    __slots__ = ("time", "summary", "decision", "applied")

    def __init__(
        self,
        time: float,
        summary: GlobalSummary,
        decision: ScalingDecision,
        applied: Dict[str, int],
    ) -> None:
        #: virtual time of the adjustment tick
        self.time = time
        #: the global summary the decision was made on
        self.summary = summary
        #: the decision the policy returned
        self.decision = decision
        #: per-vertex parallelism deltas the scheduler actually applied
        self.applied = applied

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PolicyRoundContext(t={self.time:.1f}, applied={self.applied})"


def conformance_errors(policy: object) -> List[str]:
    """Why ``policy`` does not satisfy :class:`ScalingPolicy` (empty = ok)."""
    errors: List[str] = []
    name = getattr(policy, "name", None)
    if not isinstance(name, str) or not name:
        errors.append("missing or empty 'name' attribute")
    decide = getattr(policy, "decide", None)
    if not callable(decide):
        errors.append("missing callable 'decide(summary, current_parallelism)'")
    knobs = getattr(policy, "knobs", None)
    if not callable(knobs):
        errors.append("missing callable 'knobs()'")
    else:
        try:
            declared = policy.knobs()
        except Exception as exc:  # noqa: BLE001 - conformance report
            errors.append(f"knobs() raised {exc!r}")
        else:
            if not isinstance(declared, dict):
                errors.append(f"knobs() must return a dict, got {type(declared).__name__}")
            else:
                try:
                    json.dumps(declared, sort_keys=True)
                except (TypeError, ValueError):
                    errors.append("knobs() must be JSON-serializable")
    observe = getattr(policy, "observe", None)
    if observe is not None and not callable(observe):
        errors.append("'observe' exists but is not callable")
    return errors


class PolicyContext:
    """Everything a policy factory may need to build a policy for one job.

    Carries the job's latency constraints and its *elastic* vertices
    (name order, so construction is deterministic). Factories pick what
    they need: latency-model policies use the constraints,
    utilization/rate policies the vertices. An empty context builds
    every registered policy, which is how a spec is checked before
    anything runs (:meth:`PolicySpec.validate`).
    """

    __slots__ = ("constraints", "vertices")

    def __init__(
        self,
        constraints: Iterable[LatencyConstraint] = (),
        vertices: Iterable[JobVertex] = (),
    ) -> None:
        self.constraints: List[LatencyConstraint] = list(constraints)
        self.vertices: List[JobVertex] = sorted(vertices, key=lambda v: v.name)

    @classmethod
    def for_job(
        cls, graph: JobGraph, constraints: Iterable[LatencyConstraint]
    ) -> "PolicyContext":
        """Build the context of one deployed job."""
        return cls(constraints, [v for v in graph.vertices.values() if v.elastic])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PolicyContext({len(self.constraints)} constraints, "
            f"{len(self.vertices)} elastic vertices)"
        )


def check_knob(
    name: str, value, low: float = 0.0, high: float = math.inf,
    low_closed: bool = False, high_closed: bool = True,
) -> float:
    """``value`` if it is a finite number in the range, else a ``ValueError`` naming the knob.

    The range runs from ``low`` to ``high``; each end is open unless its
    ``*_closed`` flag is set (the default is ``(0, inf)``).
    """
    ok = (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value)
        and (low <= value if low_closed else low < value)
        and (value <= high if high_closed else value < high)
    )
    if not ok:
        if math.isinf(high):
            wanted = f"{'>=' if low_closed else '>'} {low:g}"
        else:
            left, right = "[" if low_closed else "(", "]" if high_closed else ")"
            wanted = f"in {left}{low:g}, {high:g}{right}"
        raise ValueError(f"{name} must be a finite number {wanted} (got {value!r})")
    return value


def check_staleness(value: Optional[float]) -> Optional[float]:
    """The staleness gate's threshold: seconds > 0, or None (gate off)."""
    return None if value is None else check_knob("staleness_threshold", value)


#: a policy factory: ``(context, **knobs) -> ScalingPolicy``
PolicyFactory = Callable[..., ScalingPolicy]

_REGISTRY: Dict[str, PolicyFactory] = {}
_ALIASES: Dict[str, str] = {}
_BUILTINS_LOADED = False


def register_policy(name: str, *aliases: str) -> Callable[[PolicyFactory], PolicyFactory]:
    """Class/function decorator binding a factory to a canonical name.

    The factory is called as ``factory(context, **knobs)``. Aliases
    resolve to the canonical name (``rate-based`` → ``rate``).
    """
    if not isinstance(name, str) or not name:
        raise ValueError("policy name must be a non-empty string")

    def decorator(factory: PolicyFactory) -> PolicyFactory:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not factory:
            raise ValueError(f"policy {name!r} is already registered")
        _REGISTRY[name] = factory
        for alias in aliases:
            _ALIASES[alias] = name
        return factory

    return decorator


def ensure_builtin_policies() -> None:
    """Import the built-in policy modules so they self-register.

    Deferred (instead of top-of-module imports) because the policy
    modules import this one for the decorator.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.core.scale_reactively  # noqa: F401
    import repro.core.policies  # noqa: F401
    import repro.core.predictive  # noqa: F401
    import repro.core.drs  # noqa: F401
    import repro.core.daedalus  # noqa: F401


def canonical_policy_name(name: str) -> str:
    """Resolve aliases; raises ``ValueError`` for unknown names."""
    ensure_builtin_policies()
    resolved = _ALIASES.get(name, name)
    if resolved not in _REGISTRY:
        known = ", ".join(registered_policies())
        raise ValueError(f"unknown scaling policy {name!r} (have: {known})")
    return resolved


def registered_policies() -> Tuple[str, ...]:
    """All canonical policy names, sorted."""
    ensure_builtin_policies()
    return tuple(sorted(_REGISTRY))


def create_policy(name: str, context: PolicyContext, **knobs) -> ScalingPolicy:
    """Construct a registered policy by name for a job's context.

    Unknown names and unknown/ill-typed knobs raise ``ValueError`` /
    ``TypeError`` from the factory — configuration typos fail loudly.
    """
    factory = _REGISTRY[canonical_policy_name(name)]
    return factory(context, **knobs)


# ----------------------------------------------------------------------
# policy specs — the shared NAME[:key=val,...] syntax
# ----------------------------------------------------------------------


def _parse_knob_value(text: str) -> object:
    """``"true"``/``"false"`` → bool, then int, then float, else str."""
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _format_knob_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


class PolicySpec:
    """A constructible policy reference: canonical name plus knob values."""

    __slots__ = ("name", "knobs")

    def __init__(self, name: str, knobs: Optional[Dict[str, object]] = None) -> None:
        self.name = canonical_policy_name(name)
        self.knobs: Dict[str, object] = dict(knobs or {})

    def build(self, context: PolicyContext) -> ScalingPolicy:
        """Construct the policy for ``context``."""
        return create_policy(self.name, context, **self.knobs)

    def validate(self) -> "PolicySpec":
        """This spec, once it builds against an empty context.

        A bad knob (unknown name, wrong type, out of range) is then a
        ``ValueError`` before anything runs, not a failure at submit.
        """
        try:
            self.build(PolicyContext())
        except TypeError as exc:
            known = create_policy(self.name, PolicyContext()).knobs()
            unknown = sorted(set(self.knobs) - set(known))
            if not unknown:
                raise ValueError(f"policy {self.name!r}: {exc}") from None
            raise ValueError(
                f"unknown knob {', '.join(map(repr, unknown))} for policy "
                f"{self.name!r} (have: {', '.join(sorted(known))})"
            ) from None
        return self

    def canonical(self) -> str:
        """The canonical spec string (knobs sorted by key): parse round-trips."""
        if not self.knobs:
            return self.name
        parts = ",".join(
            f"{key}={_format_knob_value(self.knobs[key])}" for key in sorted(self.knobs)
        )
        return f"{self.name}:{parts}"

    @property
    def key_token(self) -> str:
        """Stable filesystem-safe token for shard keys / artifact names.

        The bare name when no knobs are set; otherwise the name plus a
        short hash of the canonical knob serialization, so two sweep axis
        entries differing only in knobs never collide.
        """
        if not self.knobs:
            return self.name
        digest = hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()[:8]
        return f"{self.name}+{digest}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolicySpec):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PolicySpec({self.canonical()!r})"


def parse_policy_spec(text) -> PolicySpec:
    """Parse ``NAME[:key=val,...]`` (the shared ``--policy`` syntax).

    Accepts an existing :class:`PolicySpec` unchanged, so callers can
    take either form. Values parse as bool/int/float/str; unknown policy
    names raise ``ValueError``.

    >>> parse_policy_spec("drs:target_fraction=0.8").knobs
    {'target_fraction': 0.8}
    """
    if isinstance(text, PolicySpec):
        return text
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"policy spec must be a non-empty string, got {text!r}")
    text = text.strip()
    name, _, knob_text = text.partition(":")
    knobs: Dict[str, object] = {}
    if knob_text:
        for part in knob_text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"malformed policy knob {part!r} in {text!r} "
                    "(expected key=value)"
                )
            knobs[key] = _parse_knob_value(value.strip())
    return PolicySpec(name.strip(), knobs)


__all__ = [
    "DEFAULT_POLICY",
    "PolicyContext",
    "PolicyRoundContext",
    "PolicySpec",
    "ScalingPolicy",
    "canonical_policy_name",
    "check_knob",
    "check_staleness",
    "conformance_errors",
    "create_policy",
    "ensure_builtin_policies",
    "parse_policy_spec",
    "register_policy",
    "registered_policies",
]
