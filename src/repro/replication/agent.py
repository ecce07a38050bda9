"""Replica-aware search agent.

The paper's :class:`~repro.agents.storm_agent.StorMSearchAgent` answers
from the visited host's own StorM store; this variant additionally
answers from the host's *replica store*, so a query finds an object as
long as **any** copy — owner's or replica — is on a reachable node.
On owner crash or suspicion the replica's answer is simply the one
that arrives; when both are up, both answer and the initiator's
:class:`~repro.core.query.QueryHandle` deduplicates, so RF > 1 never
double-counts.

Kept as a *separate* class rather than a change to the legacy agent on
purpose: agent class source ships over the wire (and is charged by
size), so touching ``StorMSearchAgent`` would shift the byte series of
every existing figure.  ``rf=1`` initiators keep dispatching the legacy
agent, bit-identical to before.

Like every shipped agent it subclasses ``Agent``, keeps its state
plain, and imports inside :meth:`execute` so the shipped source is
self-contained at any destination host.
"""

from __future__ import annotations

from repro.agents.agent import Agent


class ReplicatedSearchAgent(Agent):
    """Keyword search over each visited host's own and replica stores."""

    def __init__(
        self,
        keyword: str,
        mode: str = "direct",
        use_index: bool = False,
        reply_empty: bool = False,
    ):
        if mode not in ("direct", "metadata"):
            raise ValueError(f"mode must be 'direct' or 'metadata', got {mode!r}")
        self.keyword = keyword
        self.mode = mode
        self.use_index = use_index
        self.reply_empty = reply_empty

    def execute(self, context) -> None:
        # Imports live inside execute so the shipped source is
        # self-contained at any destination host.
        from repro.agents.messages import AnswerItem

        if self.use_index:
            result = context.storm.search(self.keyword)
        else:
            # The paper's behaviour: compare every stored object.
            result = context.storm.search_scan(self.keyword)
        context.charge_search(result)
        items = []
        for rid, obj in result.matches:
            payload = obj.payload if self.mode == "direct" else None
            items.append(
                AnswerItem(rid=rid, keywords=obj.keywords, size=obj.size, payload=payload)
            )
        # The replica store answers through the embedding node's
        # replication manager (absent on bare engines, inert when the
        # subsystem is off); matches there are charged like any scan.
        node = context.services.get("node")
        manager = getattr(node, "replication", None)
        if manager is not None:
            manager.note_query_hits(rid for rid, _obj in result.matches)
            replica_result = manager.replica_search(self.keyword, self.use_index)
            if replica_result is not None:
                context.charge_search(replica_result)
                for rid, obj in replica_result.matches:
                    payload = obj.payload if self.mode == "direct" else None
                    items.append(
                        AnswerItem(
                            rid=manager.replica_answer_rid(rid),
                            keywords=obj.keywords,
                            size=obj.size,
                            payload=payload,
                        )
                    )
                manager.replica_answers += len(replica_result.matches)
        if items or self.reply_empty:
            context.reply(items)
