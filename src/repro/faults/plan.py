"""Deterministic, seedable fault-injection plans.

A :class:`FaultPlan` is a list of :class:`FaultRule` objects plus an
explicit RNG seed.  Each rule names an instrumentation *site* (the same
choke points :mod:`repro.trace` instruments), an *action* to take there,
and a trigger (the Nth matching call, every k-th call, or a seeded
probability).  Plans are pure data + counters: given the same workload
and the same ``(spec, seed)``, the injected-fault sequence — recorded in
:attr:`FaultPlan.log` — replays byte-identically.

Sites and actions
-----------------
================ ===========================================================
site             actions
================ ===========================================================
malloc           ``oom`` (raise OutOfMemoryError), ``error``
free             ``invalid_pointer`` (raise InvalidPointerError), ``error``
memcpy           ``truncate`` (copy only ``bytes=`` bytes), ``error``
memset           ``error``
launch           ``kernel_fault`` (raise KernelFault — optionally only in
                 block ``block=`` and only after ``after_barriers=``
                 barriers), ``delay`` (sleep ``delay=`` seconds before the
                 kernel runs), ``error``
enqueue          ``delay`` (sleep ``delay=`` seconds before the op runs),
                 ``abort`` (refuse the enqueue)
checkpoint_write ``truncate`` (cut the published snapshot to ``bytes=``
                 bytes — a torn write), ``corrupt`` (flip ``bytes=`` bytes
                 of the published snapshot — media bit-rot), ``delay``,
                 ``error`` (the write itself fails)
checkpoint_read  ``truncate`` / ``corrupt`` (damage the bytes as read, not
                 on disk), ``delay``, ``error``
================ ===========================================================

Spec strings
------------
The CLI flag ``--faults=SPEC`` and :meth:`FaultPlan.parse` accept a
semicolon-separated rule list::

    seed=42;malloc:oom@3;memcpy:truncate@2,bytes=16
    launch:kernel_fault,kernel=stencil,block=2,after_barriers=1
    enqueue:delay,stream=copyq,delay=0.01,every=2;enqueue:abort,p=0.1

``@N`` fires on the Nth matching call; ``every=K`` fires on every K-th;
``p=X`` fires with probability X drawn from the plan's seeded RNG;
``kernel=``/``stream=``/``device=`` restrict matching; remaining
``key=value`` pairs are the action payload.

Two leniencies keep hand-typed specs short.  Options may be separated by
whitespace as well as commas (``'kernel_fault@3 device=1'``), and the
``site:`` prefix may be dropped when the action names it uniquely —
``oom`` means ``malloc:oom``, ``invalid_pointer`` → ``free:``,
``truncate`` → ``memcpy:``, ``kernel_fault`` → ``launch:``, ``delay``
and ``abort`` → ``enqueue:``.  ``error`` is valid at several sites and
always needs the explicit prefix.

``device=`` selectors compare against global registry ordinals.  A
harness running on a :class:`~repro.sched.DevicePool` (whose devices get
fresh ordinals above the defaults) can call
:meth:`FaultPlan.bind_devices` to re-map spec-level selectors — e.g. the
pool-relative indices the CLI exposes — onto the ordinals actually in
play, without rewriting the rules.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    FaultSpecError,
    GpuError,
    InvalidPointerError,
    KernelFault,
    OutOfMemoryError,
)
from ..trace import get_tracer

__all__ = ["FaultRule", "FaultPlan", "SITES"]

#: Instrumentation points a rule may attach to, mirroring repro.trace.
SITES = (
    "malloc",
    "free",
    "memcpy",
    "memset",
    "launch",
    "enqueue",
    "checkpoint_write",
    "checkpoint_read",
)

_ACTIONS: Dict[str, Tuple[str, ...]] = {
    "malloc": ("oom", "error"),
    "free": ("invalid_pointer", "error"),
    "memcpy": ("truncate", "error"),
    "memset": ("error",),
    "launch": ("kernel_fault", "delay", "error"),
    "enqueue": ("delay", "abort", "error"),
    "checkpoint_write": ("truncate", "corrupt", "delay", "error"),
    "checkpoint_read": ("truncate", "corrupt", "delay", "error"),
}

#: Bare-action shorthand: actions that name their site uniquely, so the
#: ``site:`` prefix may be omitted in spec fragments.  ``error`` and
#: ``corrupt`` are deliberately absent (valid at several sites), and
#: ``truncate``/``delay``/``abort`` resolve to their original homes
#: (``memcpy``/``enqueue``) even though the checkpoint sites now accept
#: them too — changing an established shorthand would silently rewrite
#: existing specs.
_SITE_FOR_ACTION: Dict[str, str] = {
    "oom": "malloc",
    "invalid_pointer": "free",
    "truncate": "memcpy",
    "kernel_fault": "launch",
    "delay": "enqueue",
    "abort": "enqueue",
}

#: Rule keys that select *which* calls match, compared as strings against
#: the context the instrumentation point passes to :meth:`FaultPlan.fire`.
_MATCH_KEYS = ("kernel", "stream", "device", "direction", "op")


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where to fire, when, and what to do."""

    site: str
    action: str
    nth: Optional[int] = None
    every: Optional[int] = None
    probability: Optional[float] = None
    max_fires: Optional[int] = None
    match: Tuple[Tuple[str, str], ...] = ()
    payload: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; choose one of {SITES}"
            )
        if self.action not in _ACTIONS[self.site]:
            raise FaultSpecError(
                f"site {self.site!r} does not support action {self.action!r}; "
                f"choose one of {_ACTIONS[self.site]}"
            )
        if self.nth is not None and self.nth < 1:
            raise FaultSpecError(f"@N trigger must be >= 1, got {self.nth}")
        if self.every is not None and self.every < 1:
            raise FaultSpecError(f"every= trigger must be >= 1, got {self.every}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"p= trigger must be in [0, 1], got {self.probability}"
            )

    @property
    def key(self) -> str:
        """Compact spec-like rendering, used in logs and trace spans."""
        parts = [f"{self.site}:{self.action}"]
        if self.nth is not None:
            parts[0] += f"@{self.nth}"
        if self.every is not None:
            parts.append(f"every={self.every}")
        if self.probability is not None:
            parts.append(f"p={self.probability}")
        parts.extend(f"{k}={v}" for k, v in self.match)
        parts.extend(f"{k}={v}" for k, v in self.payload)
        return ",".join(parts)

    def payload_dict(self) -> Dict[str, str]:
        """The action's ``key=value`` payload options as a plain dict."""
        return dict(self.payload)

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        """Split a fragment into head + option tokens.

        Commas always separate options; whitespace separates them only
        when the next token is itself a ``key=value`` pair, so payload
        values containing spaces (``message=synthetic ENOMEM``) keep
        working under the lenient whitespace syntax.
        """
        pieces: List[str] = []
        for chunk in text.split(","):
            start = len(pieces)
            for token in chunk.split():
                if len(pieces) == start or "=" in token:
                    pieces.append(token)
                else:
                    pieces[-1] += f" {token}"
        return pieces

    @classmethod
    def parse(cls, text: str) -> "FaultRule":
        """Parse one ``[site:]action[@N][,k=v...]`` rule fragment."""
        pieces = cls._tokenize(text)
        if not pieces:
            raise FaultSpecError(f"rule {text!r} is empty")
        head, tail = pieces[0], pieces[1:]
        site, sep, action = head.partition(":")
        if not sep:
            # Bare action: infer the site when the action names it uniquely.
            action = site
            site = _SITE_FOR_ACTION.get(action.partition("@")[0].strip())
            if site is None:
                raise FaultSpecError(
                    f"rule {text!r} must start with 'site:action' (e.g. "
                    f"'malloc:oom'); only "
                    f"{tuple(sorted(_SITE_FOR_ACTION))} may omit the site"
                )
        elif not action:
            raise FaultSpecError(
                f"rule {text!r} must start with 'site:action', e.g. 'malloc:oom'"
            )
        nth: Optional[int] = None
        action, at, nth_text = action.partition("@")
        if at:
            try:
                nth = int(nth_text)
            except ValueError:
                raise FaultSpecError(
                    f"rule {text!r}: '@' must be followed by an integer"
                ) from None
        every: Optional[int] = None
        probability: Optional[float] = None
        max_fires: Optional[int] = None
        match: List[Tuple[str, str]] = []
        payload: List[Tuple[str, str]] = []
        for item in tail:
            k, sep, v = item.partition("=")
            k, v = k.strip(), v.strip()
            if not sep or not k or not v:
                raise FaultSpecError(
                    f"rule {text!r}: options must be 'key=value', got {item!r}"
                )
            try:
                if k == "every":
                    every = int(v)
                elif k == "p":
                    probability = float(v)
                elif k == "max":
                    max_fires = int(v)
                elif k in _MATCH_KEYS:
                    match.append((k, v))
                else:
                    payload.append((k, v))
            except ValueError:
                raise FaultSpecError(
                    f"rule {text!r}: bad value for {k!r}: {v!r}"
                ) from None
        return cls(
            site=site.strip(),
            action=action.strip(),
            nth=nth,
            every=every,
            probability=probability,
            max_fires=max_fires,
            match=tuple(match),
            payload=tuple(payload),
        )


class FaultPlan:
    """A seeded set of fault rules with deterministic replay.

    Firing decisions depend only on per-rule match counters and the
    plan's seeded RNG, so two plans built from the same ``(rules, seed)``
    inject the same fault sequence for the same workload.  Every fired
    fault is appended to :attr:`log` as a plain tuple
    ``(sequence, site, rule_key, action, detail)``.
    """

    def __init__(self, rules, seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self._rng = Random(self.seed)
        self._matches: List[int] = [0] * len(self.rules)
        self._fires: List[int] = [0] * len(self.rules)
        self._device_alias: Dict[str, str] = {}
        self.log: List[Tuple[int, str, str, str, str]] = []

    # --- construction -----------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a ``--faults`` spec string (see module docs)."""
        seed = 0
        rules: List[FaultRule] = []
        for fragment in spec.split(";"):
            fragment = fragment.strip()
            if not fragment:
                continue
            if fragment.startswith("seed="):
                try:
                    seed = int(fragment[len("seed="):])
                except ValueError:
                    raise FaultSpecError(
                        f"bad seed in {fragment!r}; expected seed=<int>"
                    ) from None
                continue
            rules.append(FaultRule.parse(fragment))
        if not rules:
            raise FaultSpecError(
                f"fault spec {spec!r} contains no rules; expected "
                f"'site:action' fragments separated by ';'"
            )
        return cls(rules, seed=seed)

    def reset(self) -> None:
        """Re-arm counters, RNG and log for a fresh, identical replay.

        Device bindings (:meth:`bind_devices`) survive a reset: they
        describe the topology the plan runs against, not replay state.
        """
        self._rng = Random(self.seed)
        self._matches = [0] * len(self.rules)
        self._fires = [0] * len(self.rules)
        self.log.clear()

    # --- deterministic-resume cursor --------------------------------------
    def snapshot_cursor(self) -> Dict[str, Any]:
        """Capture the plan's replay position as plain picklable data.

        The cursor holds everything :meth:`fire` consults when deciding
        whether a rule triggers — per-rule match/fire counters and the
        seeded RNG's internal state — plus the ``(seed, rule keys)``
        identity so a restore can refuse a cursor taken from a different
        plan.  A plan restored from a cursor fires the remaining ``@N``/
        ``every=``/``p=`` triggers byte-identically to an uninterrupted
        run: this is what lets a resumed checkpointed run replay the same
        fault sequence the crashed run would have seen.
        """
        return {
            "seed": self.seed,
            "rules": [rule.key for rule in self.rules],
            "matches": list(self._matches),
            "fires": list(self._fires),
            "rng_state": self._rng.getstate(),
            "log": list(self.log),
        }

    def restore_cursor(self, cursor: Dict[str, Any]) -> None:
        """Rewind/fast-forward the plan to a :meth:`snapshot_cursor` point.

        Raises :class:`FaultSpecError` if the cursor identifies a
        different plan (other seed or rule set): silently adopting it
        would desynchronize the RNG stream from the counters and make
        "deterministic" replay quietly wrong.  Device bindings are left
        alone, as with :meth:`reset`.
        """
        want = [rule.key for rule in self.rules]
        if cursor.get("seed") != self.seed or list(cursor.get("rules", ())) != want:
            raise FaultSpecError(
                "fault-plan cursor does not match this plan "
                f"(cursor seed={cursor.get('seed')!r} rules="
                f"{list(cursor.get('rules', ()))!r}; plan seed={self.seed!r} "
                f"rules={want!r})"
            )
        self._matches = list(cursor["matches"])
        self._fires = list(cursor["fires"])
        # Random.setstate wants the exact nested-tuple shape getstate
        # produced; a cursor that crossed a JSON boundary arrives as
        # lists, so rebuild the tuples first.
        state = cursor["rng_state"]
        self._rng.setstate((state[0], tuple(state[1]), state[2]))
        self.log[:] = [tuple(entry) for entry in cursor["log"]]

    def bind_devices(self, mapping: Dict[Any, Any]) -> None:
        """Re-map ``device=`` selectors onto live registry ordinals.

        ``mapping`` takes spec-level selector values (e.g. pool-relative
        indices ``0..N-1``) to the registry ordinals the workload actually
        uses; both sides are compared as strings.  Selectors absent from
        the mapping keep matching raw ordinals, so registry-level specs
        still work on a bound plan.
        """
        self._device_alias = {str(k): str(v) for k, v in mapping.items()}

    # --- firing -----------------------------------------------------------
    def fire(self, site: str, **context: Any) -> Dict[str, Any]:
        """Evaluate every rule for ``site`` against one instrumented call.

        Raise-type actions raise the injected error here (tagged with
        ``injected=True``); effect-type actions return a dict the call
        site applies (``truncate_bytes``, ``delay_s``, ``kernel_fault``).
        """
        effects: Dict[str, Any] = {}
        for index, rule in enumerate(self.rules):
            if rule.site != site or not self._rule_matches(rule, context):
                continue
            self._matches[index] += 1
            if not self._should_fire(rule, index):
                continue
            self._fires[index] += 1
            self._apply(rule, index, context, effects)
        return effects

    def _rule_matches(self, rule: FaultRule, context: Dict[str, Any]) -> bool:
        for key, want in rule.match:
            if key == "device":
                want = self._device_alias.get(want, want)
            have = context.get(key)
            if have is None or str(have) != want:
                return False
        return True

    def _should_fire(self, rule: FaultRule, index: int) -> bool:
        if rule.max_fires is not None and self._fires[index] >= rule.max_fires:
            return False
        count = self._matches[index]
        if rule.nth is not None:
            return count == rule.nth
        if rule.every is not None:
            return count % rule.every == 0
        if rule.probability is not None:
            # The RNG is consumed only here, in deterministic call order.
            return self._rng.random() < rule.probability
        return True

    def _record(self, rule: FaultRule, index: int, detail: str) -> None:
        entry = (len(self.log), rule.site, rule.key, rule.action, detail)
        self.log.append(entry)
        tracer = get_tracer()
        if tracer is not None:
            tracer.add_span(
                f"fault:{rule.site}:{rule.action}", "fault", "faults",
                tracer.now_us(), 0.0,
                {"rule": rule.key, "detail": detail, "seq": entry[0]},
            )
            tracer.counter("faults_injected")

    def _apply(
        self,
        rule: FaultRule,
        index: int,
        context: Dict[str, Any],
        effects: Dict[str, Any],
    ) -> None:
        payload = rule.payload_dict()
        n = self._matches[index]
        message = payload.get(
            "message", f"[injected] {rule.action} at {rule.site} call #{n}"
        )
        if rule.action == "oom":
            self._record(rule, index, f"call #{n} size={context.get('size')}")
            raise _tag(OutOfMemoryError(message))
        if rule.action == "invalid_pointer":
            self._record(rule, index, f"call #{n} ptr={context.get('ptr')}")
            raise _tag(InvalidPointerError(message))
        if rule.action == "abort":
            self._record(rule, index, f"call #{n} op={context.get('op')}")
            raise _tag(GpuError(message))
        if rule.action == "error":
            self._record(rule, index, f"call #{n}")
            raise _tag(GpuError(message))
        if rule.action == "truncate":
            size = int(context.get("size", 0))
            keep = int(payload.get("bytes", max(size // 2, 0)))
            keep = max(0, min(keep, size))
            self._record(rule, index, f"call #{n} {size}B->{keep}B")
            effects["truncate_bytes"] = keep
            return
        if rule.action == "delay":
            delay_s = float(payload.get("delay", 0.001))
            self._record(rule, index, f"call #{n} delay={delay_s}s")
            effects["delay_s"] = effects.get("delay_s", 0.0) + delay_s
            return
        if rule.action == "corrupt":
            count = max(1, int(payload.get("bytes", 1)))
            self._record(rule, index, f"call #{n} corrupt={count}B")
            effects["corrupt_bytes"] = effects.get("corrupt_bytes", 0) + count
            return
        if rule.action == "kernel_fault":
            # Always delivered as an effect, never raised here: the fault
            # must fire *inside* the kernel, on the engine's threads, so
            # it takes the same wrap-and-poison path an organic device
            # fault does.
            block = payload.get("block")
            after = payload.get("after_barriers")
            detail = f"call #{n} kernel={context.get('kernel')}"
            self._record(rule, index, f"{detail} block={block} after={after}")
            effects["kernel_fault"] = {
                "block": None if block is None else int(block),
                "after_barriers": 0 if after is None else int(after),
                "message": message,
            }
            return
        raise FaultSpecError(f"unhandled action {rule.action!r}")  # pragma: no cover

    # --- introspection ----------------------------------------------------
    @property
    def fired(self) -> int:
        """Total faults injected so far."""
        return len(self.log)

    def summary(self) -> str:
        """Human-readable rendering of the injected-fault log."""
        if not self.log:
            return "no faults injected"
        lines = [f"{self.fired} fault(s) injected (seed={self.seed}):"]
        for seq, site, key, action, detail in self.log:
            lines.append(f"  #{seq}: {site}:{action} [{key}] {detail}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan(rules={len(self.rules)}, seed={self.seed}, fired={self.fired})"


def _tag(exc: BaseException) -> BaseException:
    """Mark an exception as injected so policies can tell it from organic."""
    exc.injected = True  # type: ignore[attr-defined]
    return exc


# ``time`` is imported for call sites applying delay effects; re-exported
# here so stream instrumentation does not need its own import dance.
sleep = time.sleep
