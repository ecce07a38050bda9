"""Content-based search and access-controlled sharing.

The paper's motivation: file-level sharing (Napster/Gnutella) "ignore[s]
the content of the file".  With mobile agents, a custom search runs *at
the data*: this example ships a content-grep agent that inspects object
payloads (not just keyword tags) and returns only matching snippets.

Owners then revise one document and withdraw another, and the same
search sees the change.  Last, it demonstrates *active objects*
(Section 3.2.2): a report whose guard code releases the full text to
auditors but strips salary figures for everyone else, until its owner
withdraws it.

Run:  python examples/content_search.py
"""

from repro import Agent, BestPeerConfig, build_network, tree
from repro.errors import AccessDeniedError


class ContentGrepAgent(Agent):
    """Search object *payloads* for a substring - content, not metadata.

    State stays plain (strings only) so the class ships to any peer.
    """

    def __init__(self, needle: str):
        self.needle = needle

    def execute(self, context):
        from repro.agents.messages import AnswerItem

        result = context.storm.search_scan("")  # examine everything
        context.charge_search(result)
        items = []
        needle = self.needle.encode("utf-8")
        for rid, obj in context.storm.scan():
            position = obj.payload.find(needle)
            if position < 0:
                continue
            snippet = obj.payload[max(0, position - 10): position + 30]
            items.append(
                AnswerItem(rid=rid, keywords=obj.keywords,
                           size=obj.size, payload=snippet)
            )
        if items:
            context.reply(items)


def main() -> None:
    net = build_network(7, config=BestPeerConfig(), topology=tree(7, branching=2))

    # Documents tagged only as "notes" - keyword search can't tell them apart.
    net.nodes[3].share(["notes"], b"meeting notes: the quarterly deadline moved")
    draft = net.nodes[4].share(["notes"], b"draft: deadline for the ICDE submission is firm")
    menu = net.nodes[5].share(["notes"], b"lunch menu: laksa, chicken rice, kaya toast")

    # A custom agent is dispatched outside the query machinery, so
    # collect its answers with a plain listener on the answer protocol.
    from repro.agents.engine import PROTO_ANSWER

    collected = []
    net.base.host.unbind(PROTO_ANSWER)
    net.base.host.bind(PROTO_ANSWER, lambda pkt: collected.append(pkt.payload))

    def content_search(needle: str) -> None:
        print(f"Content search for {needle!r} across the network:")
        collected.clear()
        net.base.dispatch_agent(ContentGrepAgent(needle))
        net.sim.run()
        for answer in collected:
            for item in answer.items:
                print(f"  {answer.responder}: ...{item.payload.decode()!r}...")

    content_search("deadline")

    # ------------------------------------------------------------------
    # Owners revise and withdraw what they share.
    # ------------------------------------------------------------------
    net.nodes[4].reshare(draft, ["notes"], b"draft: the ICDE deadline slipped a week")
    canteen = net.nodes[5]
    canteen.unshare(menu)
    print(f"\n{canteen.name} withdrew its menu; vacuuming its store "
          f"reclaimed {canteen.storm.vacuum()} bytes")
    content_search("deadline")

    # ------------------------------------------------------------------
    # Active objects: owner-defined code guards partial content.
    # ------------------------------------------------------------------
    owner = net.nodes[1]
    report = (b"Q3 report | headcount: 42 | revenue: up"
              b" | SALARIES: [redacted-worthy numbers]")

    def guard(requester, credential, data):
        if credential == "auditor-token":
            return data
        if credential == "employee":
            return data.split(b"| SALARIES:")[0].strip()
        raise AccessDeniedError(f"credential {credential!r} is not accepted")

    owner.share_active("q3-report", report, guard)

    print("\nActive object 'q3-report' under three credentials:")
    for credential in ("employee", "auditor-token", "stranger"):
        replies = []
        net.base.request_active(
            owner.host.address, "q3-report", credential, replies.append
        )
        net.sim.run()
        reply = replies[0]
        if reply.granted:
            print(f"  {credential!r:16} -> {reply.content.decode()}")
        else:
            print(f"  {credential!r:16} -> DENIED ({reply.reason})")

    owner.catalog.unregister("q3-report")
    replies = []
    net.base.request_active(owner.host.address, "q3-report", "auditor-token", replies.append)
    net.sim.run()
    print(f"\nAfter the owner withdraws it: {replies[0].reason}")
    assert not replies[0].granted


if __name__ == "__main__":
    main()
