"""Hook fire counts on the simulated kernel path.

The stack skips building a ProbeEvent (and calling ``HookRegistry.fire``)
for a hook with nothing attached and only bumps ``fire_counts``.  These
tests check that the counts stay exact: the same with nothing attached,
with a zero-cost handler on every hook, and with a handler attached and
detached mid-run; and that the handler sees exactly the fires counted
while it was attached.
"""

import inspect

from repro.ebpf.probes import CallbackAttachment, HookRegistry
from repro.net.addressing import IPv4Address
from repro.net.device import VethDevice
from repro.net.packet import Packet
from repro.net.stack import KernelNode
from repro.sim.engine import Engine

PACKETS = 30
GAP_NS = 20_000


def _scene():
    """Two nodes on a veth pair exchanging UDP both ways."""
    engine = Engine()
    node_a = KernelNode(engine, "alpha", num_cpus=2)
    node_b = KernelNode(engine, "beta", num_cpus=2)
    veth_a, veth_b = VethDevice.create_pair(node_a, "veth0", node_b, "veth0")
    ip_a, ip_b = IPv4Address("10.1.0.1"), IPv4Address("10.1.0.2")
    veth_a.ip, veth_b.ip = ip_a, ip_b
    node_a.add_route(IPv4Address("10.1.0.0"), 24, veth_a, src_ip=ip_a)
    node_b.add_route(IPv4Address("10.1.0.0"), 24, veth_b, src_ip=ip_b)
    node_a.add_neighbor(ip_b, veth_b.mac)
    node_b.add_neighbor(ip_a, veth_a.mac)
    sock_a = node_a.bind_udp(ip_a, 9000)
    sock_b = node_b.bind_udp(ip_b, 9000)
    for i in range(PACKETS):
        engine.schedule(i * GAP_NS, sock_a.sendto, ip_b, 9000, b"ping")
        engine.schedule(i * GAP_NS + GAP_NS // 2, sock_b.sendto, ip_a, 9000, b"pong")
    return engine, (node_a, node_b)


def _counts(nodes):
    return {node.name: dict(node.hooks.fire_counts) for node in nodes}


def _unattached_counts():
    engine, nodes = _scene()
    engine.run()
    return _counts(nodes)


class TestFireCounts:
    def test_unattached_fires_are_counted(self):
        counts = _unattached_counts()
        alpha, beta = counts["alpha"], counts["beta"]
        for node_counts in (alpha, beta):
            assert node_counts["kprobe:udp_send_skb"] == PACKETS
            assert node_counts["kprobe:ip_output"] == PACKETS
            assert node_counts["kprobe:dev_queue_xmit"] == PACKETS
            assert node_counts["kprobe:udp_rcv"] == PACKETS
            assert node_counts["kprobe:skb_copy_datagram_iovec"] == PACKETS
            assert node_counts["kprobe:get_rps_cpu"] == PACKETS
            # veth0 fires on transmit and on receive.
            assert node_counts["dev:veth0"] == 2 * PACKETS

    def test_counts_match_with_every_hook_attached(self):
        expected = _unattached_counts()
        engine, nodes = _scene()
        seen = {}
        for node in nodes:
            for hook in expected[node.name]:
                key = (node.name, hook)
                seen[key] = 0

                def handler(_event, key=key):
                    seen[key] += 1

                node.hooks.attach(hook, CallbackAttachment(handler, cost_ns=0))
        engine.run()
        assert _counts(nodes) == expected
        for (name, hook), handled in seen.items():
            assert handled == expected[name][hook]

    def test_attach_and_detach_mid_run(self):
        expected = _unattached_counts()
        engine, (node_a, node_b) = _scene()
        hook = "kprobe:udp_rcv"
        handled = []
        attachment = CallbackAttachment(handled.append, cost_ns=0)

        engine.run(until=PACKETS // 3 * GAP_NS)
        before = node_b.hooks.fires(hook)
        node_b.hooks.attach(hook, attachment)
        engine.run(until=2 * PACKETS // 3 * GAP_NS)
        node_b.hooks.detach(hook, attachment)
        during = node_b.hooks.fires(hook) - before
        engine.run()

        assert 0 < before and 0 < during < PACKETS
        assert len(handled) == during
        assert all(event.hook == hook and event.node == "beta" for event in handled)
        assert _counts((node_a, node_b)) == expected


class TestWrappableMethods:
    def test_sampled_methods_stay_plain_functions(self):
        # The benchmark's traced samples wrap these in place.
        for owner, name in (
            (HookRegistry, "fire"),
            (HookRegistry, "has_attachments"),
            (Packet, "__init__"),
        ):
            assert inspect.isfunction(owner.__dict__[name]), f"{owner.__name__}.{name}"
