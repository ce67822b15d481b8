"""Unit tests for Mailbox (repro.protocols.base)."""

from repro.net import MacAddress
from repro.protocols import Mailbox, MessageView
from repro.sim import Simulator

A, B = MacAddress(0), MacAddress(1)


def test_mailbox_delivers_to_waiting_receiver():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def receiver():
        m = yield box.recv()
        got.append(m)

    sim.process(receiver())

    def sender():
        yield sim.timeout(1.0)
        box.deliver(MessageView(src=A, tag=7, nbytes=100))

    sim.process(sender())
    sim.run()
    assert got[0].tag == 7 and got[0].src == A


def test_mailbox_queues_until_recv():
    sim = Simulator()
    box = Mailbox(sim)
    box.deliver(MessageView(src=A, tag=1, nbytes=10))
    assert box.pending() == 1
    got = []

    def receiver():
        m = yield box.recv()
        got.append(m)

    sim.process(receiver())
    sim.run()
    assert got[0].nbytes == 10
    assert box.pending() == 0


def test_mailbox_matches_source_and_tag():
    sim = Simulator()
    box = Mailbox(sim)
    box.deliver(MessageView(src=A, tag=1, nbytes=1))
    box.deliver(MessageView(src=B, tag=2, nbytes=2))
    box.deliver(MessageView(src=A, tag=2, nbytes=3))
    got = []

    def receiver():
        m = yield box.recv(src=A, tag=2)
        got.append(m.nbytes)
        m = yield box.recv(src=B)
        got.append(m.nbytes)
        m = yield box.recv()
        got.append(m.nbytes)

    sim.process(receiver())
    sim.run()
    assert got == [3, 2, 1]


def test_mailbox_wildcard_receives_fifo():
    sim = Simulator()
    box = Mailbox(sim)
    for i in range(3):
        box.deliver(MessageView(src=A, tag=i, nbytes=i))
    got = []

    def receiver():
        for _ in range(3):
            m = yield box.recv()
            got.append(m.tag)

    sim.process(receiver())
    sim.run()
    assert got == [0, 1, 2]


def test_mailbox_multiple_waiters_matched_in_order():
    sim = Simulator()
    box = Mailbox(sim)
    got = []

    def receiver(tag):
        m = yield box.recv(tag=tag)
        got.append((tag, m.nbytes))

    sim.process(receiver(5))
    sim.process(receiver(6))

    def sender():
        yield sim.timeout(1.0)
        box.deliver(MessageView(src=A, tag=6, nbytes=60))
        box.deliver(MessageView(src=A, tag=5, nbytes=50))

    sim.process(sender())
    sim.run()
    assert sorted(got) == [(5, 50), (6, 60)]

