"""Tests for repro.util.tracing."""

from repro.util.tracing import NULL_TRACER, TraceEvent, Tracer


def test_record_and_select():
    tracer = Tracer()
    tracer.record(1.0, "net", "send", src="a", dst="b")
    tracer.record(2.0, "net", "recv", src="a", dst="b")
    tracer.record(3.0, "agent", "execute", host="b")
    assert len(list(tracer.select("net"))) == 2
    assert len(list(tracer.select("net", "send"))) == 1
    (event,) = tracer.select("agent")
    assert event.get("host") == "b"
    assert event.get("missing", "default") == "default"


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.record(0.0, "net", "send")
    assert tracer.events == []


def test_clear():
    tracer = Tracer()
    tracer.record(0.0, "x", "y")
    tracer.bump("net", "encode-hit")
    tracer.clear()
    assert tracer.events == []
    assert tracer.counter("net", "encode-hit") == 0


def test_event_str_contains_fields():
    event = TraceEvent(1.25, "net", "drop", (("reason", "offline"),))
    text = str(event)
    assert "net:drop" in text
    assert "offline" in text


def test_null_tracer_is_disabled():
    NULL_TRACER.record(0.0, "net", "send")
    assert NULL_TRACER.events == []
