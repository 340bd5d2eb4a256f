package cluster_test

import (
	"testing"

	"repro/internal/clic"
	"repro/internal/cluster"
	"repro/internal/ether"
	"repro/internal/flight"
	"repro/internal/sim"
)

func TestNewBuildsTopology(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 3, NICsPerNode: 2, Seed: 1})
	if len(c.Nodes) != 3 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	if c.Switch.Ports() != 6 {
		t.Errorf("switch has %d ports, want 6 (3 nodes x 2 NICs)", c.Switch.Ports())
	}
	for i, n := range c.Nodes {
		if n.ID != i || len(n.NICs) != 2 || n.Host == nil || n.Kernel == nil {
			t.Errorf("node %d malformed", i)
		}
	}
}

func TestResolveAndNodeOf(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, NICsPerNode: 2, Seed: 1})
	if c.Resolve(1, 0) != ether.NodeMAC(1, 0) || c.Resolve(1, 1) != ether.NodeMAC(1, 1) {
		t.Error("resolve wrong MACs")
	}
	// Stripe index wraps over the destination's NIC count.
	if c.Resolve(1, 2) != ether.NodeMAC(1, 0) {
		t.Error("stripe wrap broken")
	}
	for node := 0; node < 2; node++ {
		for idx := 0; idx < 2; idx++ {
			got, ok := c.NodeOf(ether.NodeMAC(node, idx))
			if !ok || got != node {
				t.Errorf("NodeOf(%d,%d) = %d,%v", node, idx, got, ok)
			}
		}
	}
	if _, ok := c.NodeOf(ether.NodeMAC(9, 9)); ok {
		t.Error("NodeOf invented a node")
	}
}

func TestOneStackPerNode(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 2, Seed: 1})
	c.EnableCLIC(clic.DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Error("enabling a second stack on the same cluster did not panic")
		}
	}()
	c.EnableTCP()
}

func TestDefaultsApplied(t *testing.T) {
	c := cluster.New(cluster.Config{Nodes: 1})
	if c.Params.NIC.MTU != 1500 {
		t.Errorf("default MTU %d", c.Params.NIC.MTU)
	}
	if c.Eng == nil {
		t.Fatal("no engine")
	}
}

// TestFlightRecordsResourceSpans checks that a flight-recorded cluster
// journals every host's CPU, PCI and memory-bus busy spans: each one
// with a positive duration, and each track's spans in time order
// without overlap.
func TestFlightRecordsResourceSpans(t *testing.T) {
	j := flight.New(0)
	c := cluster.New(cluster.Config{Nodes: 2, Seed: 1, Flight: j})
	c.EnableCLIC(clic.DefaultOptions())
	c.Go("sender", func(p *sim.Proc) {
		if err := c.Nodes[0].CLIC.Send(p, 1, 7, make([]byte, 10_000)); err != nil {
			t.Error(err)
		}
	})
	c.Go("receiver", func(p *sim.Proc) { c.Nodes[1].CLIC.Recv(p, 7) })
	c.Run()

	ends := map[string]int64{}
	for _, ev := range flight.Analyze(j.Snapshot()).Resources {
		if ev.Arg <= 0 {
			t.Errorf("%s: busy span at %d has duration %d", ev.Name, ev.At, ev.Arg)
		}
		if end, seen := ends[ev.Name]; seen && ev.At < end {
			t.Errorf("%s: span at %d starts before the previous one ends (%d)", ev.Name, ev.At, end)
		}
		ends[ev.Name] = ev.At + ev.Arg
	}
	for _, node := range []string{"node0", "node1"} {
		for _, res := range []string{"cpu", "pci", "membus"} {
			if _, ok := ends[node+":"+res]; !ok {
				t.Errorf("no busy spans journaled for %s:%s", node, res)
			}
		}
	}
}
