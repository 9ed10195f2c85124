"""Deterministic fault injection for the IAC stack.

The paper's design leans on two assumptions that fail in deployments: a
lossless Ethernet backplane over which APs exchange decoded packets and
CSI annotations (§7.1), and fresh sounding feedback from clients.  This
package makes both failure modes — plus the leader AP itself dying —
injectable, *deterministically*:

* :class:`~repro.faults.plan.FaultPlan` — a frozen, JSON-scalar
  description of what goes wrong: Bernoulli and Gilbert–Elliott burst
  loss plus bounded delay on backplane frames, CSI corruption and
  forced staleness on sounding reports, and a leader-crash slot.
* :class:`~repro.faults.injector.FaultInjector` — the seeded runtime.
  Every fault class draws from its own spawned RNG stream (the repo's
  per-stream seeding contract), so enabling one fault never perturbs
  another — and never touches the simulation's own streams.  Same
  ``(seed, FaultPlan)`` ⇒ the same faults, bit for bit, at any worker
  count.

Consumed by :mod:`repro.sim.wlan` (graceful degradation to
point-to-point service instead of crashes; see docs/ARCHITECTURE.md
§"Fault model & degradation contract") and surfaced as the
``fault_resilience`` / ``backplane_loss_sweep`` scenarios and the
``faults`` case of ``repro bench``.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "injector": ("FaultInjector",),
    "plan": ("FaultPlan",),
})
