"""Eager-decode, codec-stats and decode-avoidance regression tests.

The flat scan decodes every rdata while it walks the packet.  These
tests pin the invariants the rest of the stack relies on: decoded
records never alias the caller's buffer (copy-on-decode, so a reused
receive buffer can never corrupt a record), the codec stats count real
work and depend only on a run's own traffic, and the transport and
simulator avoid full decodes wherever a cheap transaction-id peek or an
abandoned future makes them pointless.
"""

import socket
import threading

import pytest

from repro.dnslib import (
    CODEC_STATS,
    DNSClass,
    EDNSOption,
    Message,
    Name,
    Question,
    ResourceRecord,
    RRType,
    WireError,
    add_edns,
    decode_many,
    peek_header,
    peek_txid,
)
from repro.dnslib.rdata.address import A, AAAA
from repro.dnslib.rdata.names import NS
from repro.dnslib.rdata.text import TXT
from repro.net import LatencyModel, ServerReply, SimNetwork, Simulator, UDPTransport


def _rr(name, rrtype, rdata, ttl=300):
    return ResourceRecord(Name.from_text(name), rrtype, DNSClass.IN, ttl, rdata)


def _referral_wire(txid=0x4242):
    query = Message.make_query("www.domain-7.com", RRType.A, txid=txid)
    referral = query.make_response()
    for k in (1, 2):
        referral.authorities.append(
            _rr("domain-7.com", RRType.NS, NS(Name.from_text(f"ns{k}.host.example")), 172_800)
        )
        referral.additionals.append(
            _rr(f"ns{k}.host.example", RRType.A, A(f"10.7.0.{k}"), 172_800)
        )
    referral.answers.append(
        _rr("www.domain-7.com", RRType.TXT, TXT((b"hello", b"world")))
    )
    return referral, referral.to_wire()


# -- eager decode ------------------------------------------------------------


def test_hydrated_values_match_eager_construction():
    referral, wire = _referral_wire()
    decoded = Message.from_wire(wire)
    assert decoded == referral
    glue = [r for r in decoded.additionals if r.rrtype == RRType.A]
    assert [r.rdata for r in glue] == [A("10.7.0.1"), A("10.7.0.2")]
    txt = decoded.answers[0]
    assert txt.rdata == TXT((b"hello", b"world"))


def test_bytearray_input_is_copied_before_decode():
    """Scribbling over the caller's buffer after decode must not change
    the decoded records."""
    _, wire = _referral_wire()
    buffer = bytearray(wire)
    decoded = Message.from_wire(buffer)
    buffer[:] = b"\xff" * len(buffer)
    glue = [r for r in decoded.additionals if r.rrtype == RRType.A]
    assert [r.rdata for r in glue] == [A("10.7.0.1"), A("10.7.0.2")]
    assert decoded.answers[0].rdata == TXT((b"hello", b"world"))


def test_malformed_rdata_fails_the_decode():
    """Every rdata decodes in the scan, so a malformed one (an EDNS
    option overrunning its OPT record) rejects the packet up front
    rather than on some later ``.rdata`` read."""
    query = Message.make_query("opt.test", RRType.A, txid=7)
    add_edns(query, options=(EDNSOption(10, b"cookie!!"),))
    wire = bytearray(query.to_wire())
    assert Message.from_wire(bytes(wire)) == query
    wire[-10:-8] = b"\x00\x09"  # option length one past the rdata
    with pytest.raises(WireError, match="overruns"):
        Message.from_wire(bytes(wire))


# -- batch decode and peeks --------------------------------------------------


def test_decode_many_matches_individual_decodes():
    wires = [_referral_wire(txid)[1] for txid in (1, 2, 3, 4)]
    batch = decode_many(wires)
    assert batch == [Message.from_wire(w) for w in wires]
    assert [m.id for m in batch] == [1, 2, 3, 4]


def test_decode_many_raises_on_first_bad_buffer():
    good = _referral_wire()[1]
    with pytest.raises(WireError):
        decode_many([good, good[:9]])


def test_peeks_match_full_decode():
    referral, wire = _referral_wire(txid=0x0BAD)
    assert peek_txid(wire) == 0x0BAD
    txid, _flags, qd, an, ns, ar = peek_header(wire)
    assert (txid, qd, an, ns, ar) == (0x0BAD, 1, 1, 2, 2)
    with pytest.raises(WireError):
        peek_txid(b"\x00")
    with pytest.raises(WireError):
        peek_header(wire[:11])


# -- decode avoidance in the transport and the simulator ---------------------


def test_wrong_txid_discarded_without_full_decode():
    """The live transport peeks the transaction id: a spoofed-id packet
    costs zero decodes, and the whole exchange costs exactly one."""
    query = Message.make_query("peek.test", RRType.A, txid=0x0A0B)
    wrong = query.make_response()
    wrong.id = 0x0A0C
    right = query.make_response(authoritative=True)
    wrong_wire = wrong.to_wire()
    right_wire = right.to_wire()

    responder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    responder.bind(("127.0.0.1", 0))

    def serve():
        _, client = responder.recvfrom(4096)
        responder.sendto(wrong_wire, client)
        responder.sendto(right_wire, client)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    before = CODEC_STATS["decode_calls"]
    with UDPTransport() as transport:
        response = transport.query(query, responder.getsockname(), timeout=5.0)
    thread.join(timeout=5.0)
    responder.close()
    assert response is not None
    assert response.id == 0x0A0B
    assert response.flags.authoritative
    # one full decode for the matching reply; the spoofed packet was
    # rejected on the two peeked id bytes alone
    assert CODEC_STATS["decode_calls"] == before + 1


class _SlowServer:
    def handle_query(self, query, client_ip, now, protocol):
        response = query.make_response(authoritative=True)
        response.answers.append(_rr(query.question.name.to_text(), RRType.A, A("192.0.2.1")))
        return ServerReply(response)


def _run_wire_queries(count, latency_median, timeout):
    sim = Simulator()
    network = SimNetwork(sim, seed=1, wire_mode="always")
    network.register_server(
        "10.0.0.1", _SlowServer(), latency=LatencyModel(median=latency_median, sigma=0.0)
    )
    results = []

    def routine(i):
        message = Message.make_query(f"host{i}.example.com", RRType.A, txid=i + 1)
        result = yield network.query_udp("198.18.0.1", "10.0.0.1", message, timeout)
        results.append(result)

    sim.run_all(routine(i) for i in range(count))
    return results


def test_abandoned_future_skips_response_decode():
    """When the client times out before the reply lands, the simulator
    must not decode a packet nobody will read: the exchange costs one
    decode (the server parsing the query), not two."""
    before = CODEC_STATS["decode_calls"]
    results = _run_wire_queries(1, latency_median=1.0, timeout=0.1)
    assert results == [None]
    assert CODEC_STATS["decode_calls"] == before + 1


def test_wire_mode_costs_two_decodes_per_exchange():
    """The per-lookup decode budget in wire mode: the server parses the
    query and the client parses the reply — nothing else."""
    before = CODEC_STATS["decode_calls"]
    results = _run_wire_queries(5, latency_median=0.01, timeout=3.0)
    assert all(r is not None for r in results)
    assert CODEC_STATS["decode_calls"] == before + 10


# -- scans: loud wire failures, traffic-only codec metrics --------------------


def _runner(metrics=False):
    from repro.ecosystem import EcosystemParams, build_internet
    from repro.framework import ScanConfig, ScanRunner

    internet = build_internet(params=EcosystemParams(seed=7), wire_mode="always")
    config = ScanConfig(
        module="A", mode="iterative", threads=50, source_prefix=28, seed=7,
        metrics=metrics,
    )
    return internet, ScanRunner(internet, config)


def _corpus(count, start):
    from repro.workloads import DomainCorpus

    return list(DomainCorpus().fqdns(count, start=start))


def test_wire_round_trip_decode_failure_fails_the_scan(monkeypatch):
    """The simulator decodes packets its own encoder just produced, so a
    decode failure there is a codec defect: it is counted and raised,
    never papered over by handing the in-memory message along."""
    names = _corpus(20, 0)
    internet, runner = _runner()
    assert runner.run(names).stats.successes > 0
    assert internet.network.stats.wire_decode_failures == 0

    def broken(cls, data):
        raise WireError("planted decode failure")

    monkeypatch.setattr(Message, "from_wire", classmethod(broken))
    internet, runner = _runner()
    with pytest.raises(WireError, match="planted decode failure"):
        runner.run(names)
    assert internet.network.stats.wire_decode_failures == 1


def test_codec_metrics_repeat_across_runs_without_reset():
    """Two identical metered scans in one process publish identical
    codec.* Prometheus lines, even with a scan of other names in
    between warming every process-global codec cache."""
    names = _corpus(120, 0)

    def codec_lines():
        report = _runner(metrics=True)[1].run(names)
        text = report.registry.render_prometheus()
        return [line for line in text.splitlines() if "codec_" in line]

    first = codec_lines()
    _runner()[1].run(_corpus(120, 5_000))
    second = codec_lines()
    assert any(line.startswith("pyzdns_codec_decode_calls") for line in first), first
    assert first == second
