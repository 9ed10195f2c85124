"""Transmission-group selection: brute force, FIFO, best-of-two (§7.2).

Given the FIFO queue and a way to score candidate groups (the throughput
estimator of §7.2, ``sum_i log(1 + |v_i^T H_i w_i|^2)``), the concurrency
algorithm picks which clients transmit together.  All three variants share
two rules from the paper:

* the head-of-queue client is always in the group (no starvation at the
  head, bounded delay);
* groups contain distinct clients.

They differ in how the companions are chosen:

* :class:`BruteForce` -- best over *all* combinations of queued clients
  (combinatorial; maximum throughput, poor fairness);
* :class:`FifoGrouping` -- strictly by arrival order (fair, throughput
  oblivious);
* :class:`BestOfTwo` -- two random candidates per remaining position, pick
  the best-scoring combination, plus credit counters that force chronically
  unlucky clients into a group (IAC's choice).
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.mac.queueing import TransmissionQueue
from repro.utils.rng import default_rng

#: A group scorer: maps an ordered client tuple to estimated throughput.
#: Any callable qualifies; :class:`repro.engine.BatchedGroupEvaluator`
#: additionally exposes ``evaluate_many`` for batched scoring.
GroupEvaluator = Callable[[Tuple[int, ...]], float]


def score_groups(
    evaluate: GroupEvaluator, groups: Sequence[Tuple[int, ...]]
) -> List[float]:
    """Score candidate groups, in one batched call when supported.

    Selectors enumerate their candidates up front and hand the whole probe
    to the evaluator: an engine evaluator (anything with ``evaluate_many``)
    solves all not-yet-cached candidates in a single ndarray batch, while a
    plain callable is applied per group exactly as the scalar loop did.
    """
    many = getattr(evaluate, "evaluate_many", None)
    if many is not None:
        return [float(rate) for rate in many(groups)]
    return [float(evaluate(group)) for group in groups]


def _best_group(
    evaluate: GroupEvaluator, groups: Sequence[Tuple[int, ...]]
) -> Tuple[int, ...]:
    """The first highest-scoring group (matching strict ``>`` scanning)."""
    scores = score_groups(evaluate, groups)
    return groups[max(range(len(groups)), key=scores.__getitem__)]


@dataclass(frozen=True)
class GroupProposal:
    """A selector decision with the RNG consumed but the scoring deferred.

    :meth:`ConcurrencySelector.propose` front-loads every random draw and
    returns the candidate groups; :meth:`ConcurrencySelector.resolve`
    scores them and applies any bookkeeping (fairness credits).
    ``resolve(propose(queue), evaluate)`` is exactly ``select(queue,
    evaluate)`` — the split is the seam of the columnar slot path
    (``_begin_slot`` ends at ``propose``, ``_resolve_slot`` resolves),
    where a driver can batch the solves of many cells' candidate groups
    *between* the two halves.
    """

    #: Decided without scoring (degenerate backlog); resolve returns it.
    immediate: Optional[Tuple[int, ...]] = None
    #: Candidate groups to score (resolve picks the first-best).
    groups: Tuple[Tuple[int, ...], ...] = ()
    #: Used when ``groups`` is empty (all random combos collided).
    fallback: Optional[Tuple[int, ...]] = None
    #: Clients considered for membership (BestOfTwo credit accounting).
    considered: FrozenSet[int] = frozenset()


class ConcurrencySelector(ABC):
    """Strategy interface for picking one transmission group."""

    #: Number of clients per group (3 for the 2-antenna testbed scenarios).
    group_size: int

    def select(self, queue: TransmissionQueue, evaluate: GroupEvaluator) -> Tuple[int, ...]:
        """Return the ordered client ids of the next transmission group.

        Fewer than ``group_size`` clients are returned when the queue holds
        fewer distinct clients.
        """
        return self.resolve(self.propose(queue), evaluate)

    @abstractmethod
    def propose(self, queue: TransmissionQueue) -> GroupProposal:
        """Draw-complete half of :meth:`select` (see :class:`GroupProposal`)."""

    def resolve(
        self, proposal: GroupProposal, evaluate: GroupEvaluator
    ) -> Tuple[int, ...]:
        """Scoring half of :meth:`select`: pick, account, return."""
        if proposal.immediate is not None:
            return proposal.immediate
        if proposal.groups:
            return _best_group(evaluate, list(proposal.groups))
        assert proposal.fallback is not None
        return proposal.fallback


def _head_and_others(queue: TransmissionQueue) -> Tuple[int, List[int]]:
    clients = queue.clients_in_order()
    if not clients:
        raise ValueError("cannot form a group from an empty queue")
    return clients[0], clients[1:]


@dataclass
class FifoGrouping(ConcurrencySelector):
    """Combine packets strictly by arrival order.

    "This approach is simple and gives each client a fair access to the
    medium, but is oblivious to the throughput of a particular grouping."
    """

    group_size: int = 3

    def propose(self, queue: TransmissionQueue) -> GroupProposal:
        head, others = _head_and_others(queue)
        return GroupProposal(
            immediate=tuple([head] + others[: self.group_size - 1])
        )


@dataclass
class BruteForce(ConcurrencySelector):
    """Exhaustive search over companion combinations.

    "The brute force approach considers all combinations of clients with
    queued packets ... and estimates the throughput of each combination."
    The head packet stays in the group; companions and their order (the
    order encodes the AP assignment) are optimised exhaustively.
    """

    group_size: int = 3

    def propose(self, queue: TransmissionQueue) -> GroupProposal:
        head, others = _head_and_others(queue)
        k = min(self.group_size - 1, len(others))
        if k == 0:
            return GroupProposal(immediate=(head,))
        return GroupProposal(
            groups=tuple(
                (head,) + combo for combo in itertools.permutations(others, k)
            )
        )


@dataclass
class BestOfTwo(ConcurrencySelector):
    """The power-of-two-choices selector with fairness credits (IAC's).

    For each companion position, two random candidate clients are drawn;
    all combinations of the candidates (4 groups for a 3-client group) are
    scored and the best is used.  Every candidate that was considered but
    not picked gains a credit; a client whose credits cross ``threshold``
    is forced into the next group regardless of throughput, then reset.
    """

    group_size: int = 3
    threshold: int = 8
    rng: object = None
    credits: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        self.rng = default_rng(self.rng)

    def propose(self, queue: TransmissionQueue) -> GroupProposal:
        head, others = _head_and_others(queue)
        n_companions = min(self.group_size - 1, len(others))
        if n_companions == 0:
            # Degenerate backlog: decided now, and crucially *without*
            # the credit accounting below (the head keeps its credits).
            return GroupProposal(immediate=(head,))

        # Clients owed service come first, regardless of throughput.
        forced = [c for c in others if self.credits.get(c, 0) >= self.threshold]
        forced = forced[:n_companions]
        free_positions = n_companions - len(forced)
        pool = [c for c in others if c not in forced]

        position_candidates: List[List[int]] = []
        considered = set()
        for _ in range(free_positions):
            if not pool:
                break
            k = min(2, len(pool))
            picks = [pool[i] for i in self.rng.choice(len(pool), size=k, replace=False)]
            position_candidates.append(picks)
            considered.update(picks)

        combos = itertools.product(*position_candidates) if position_candidates else [()]
        groups = tuple(
            (head,) + tuple(forced) + tuple(combo)
            for combo in combos
            if len(set(combo)) == len(combo)  # no client fills two positions
        )
        # All combos collided (tiny pools): fall back to arrival order.
        fallback = (head,) + tuple(forced) + tuple(pool[:free_positions])
        return GroupProposal(
            groups=groups, fallback=fallback, considered=frozenset(considered)
        )

    def resolve(
        self, proposal: GroupProposal, evaluate: GroupEvaluator
    ) -> Tuple[int, ...]:
        if proposal.immediate is not None:
            return proposal.immediate
        if proposal.groups:
            best_group = _best_group(evaluate, list(proposal.groups))
        else:
            assert proposal.fallback is not None
            best_group = proposal.fallback

        # Credit accounting: picked -> reset, considered-but-ignored -> +1.
        for client in best_group:
            self.credits[client] = 0
        for client in set(proposal.considered) - set(best_group):
            self.credits[client] = self.credits.get(client, 0) + 1
        return best_group


#: Every ``algorithm`` name :func:`make_selector` accepts, aliases included.
SELECTORS: Dict[str, type] = {
    "fifo": FifoGrouping,
    "brute": BruteForce,
    "brute-force": BruteForce,
    "bruteforce": BruteForce,
    "best2": BestOfTwo,
    "best-of-two": BestOfTwo,
    "bestoftwo": BestOfTwo,
}


def make_selector(name: str, group_size: int = 3, rng=None) -> ConcurrencySelector:
    """Factory used by experiments: a :data:`SELECTORS` name (``"fifo"``,
    ``"brute"``, ``"best2"`` or an alias)."""
    cls = SELECTORS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown selector algorithm={name!r} (expected one of {', '.join(SELECTORS)})"
        )
    if cls is BestOfTwo:
        return BestOfTwo(group_size=group_size, rng=rng)
    return cls(group_size=group_size)
