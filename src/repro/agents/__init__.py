"""Mobile agent framework.

BestPeer's defining integration: queries are *agents* — code plus state —
shipped to peers and executed where the data lives.  This package
implements:

``agent``       the :class:`Agent` base class (code + plain-data state)
``codeship``    source extraction and per-host class caches (the Python
                analogue of Java serialization + class loading)
``envelope``    the wire form of a travelling agent (TTL, Hops, ...)
``messages``    answer messages sent straight back to the initiator
``costs``       CPU cost knobs for installing and running agents
``engine``      the per-host execution engine: dedup, clone-and-forward
                flooding, itinerary travel, class-miss requests
``storm_agent`` the paper's StorM keyword-search agent
"""

from repro.agents.agent import Agent
from repro.agents.codeship import AgentCodeRegistry, extract_source
from repro.agents.costs import AgentCosts
from repro.agents.engine import AgentContext, AgentEngine
from repro.agents.envelope import AgentEnvelope
from repro.agents.messages import AnswerItem, AnswerMessage
from repro.agents.storm_agent import StorMSearchAgent

__all__ = [
    "Agent",
    "AgentCodeRegistry",
    "extract_source",
    "AgentCosts",
    "AgentEnvelope",
    "AgentEngine",
    "AgentContext",
    "AnswerItem",
    "AnswerMessage",
    "StorMSearchAgent",
]
