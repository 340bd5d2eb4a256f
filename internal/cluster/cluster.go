// Package cluster assembles simulated clusters: nodes (CPU + kernel +
// NICs) wired through a store-and-forward Gigabit Ethernet switch, with a
// protocol stack instantiated per node. It is the composition root the
// examples and benchmark harness build on.
package cluster

import (
	"fmt"

	"repro/internal/clic"
	"repro/internal/ether"
	"repro/internal/flight"
	"repro/internal/gamma"
	"repro/internal/health"
	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/telemetry"
	"repro/internal/via"
)

// Config describes a cluster to build.
type Config struct {
	// Nodes is the number of cluster nodes (≥ 2 for network traffic).
	Nodes int

	// NICsPerNode enables channel bonding when > 1 (§5).
	NICsPerNode int

	// Params is the cost model; zero value means model.Default().
	Params *model.Params

	// Seed feeds the deterministic random source.
	Seed int64

	// Flight, when non-nil, is shared by every node and link as the
	// cluster-wide flight recorder: per-frame lifecycle spans from the
	// send syscall to the copy to user memory land in one journal, so
	// cross-node spans stitch in a single export. Every host's CPU, PCI
	// and memory-bus busy spans are journaled too. Nil disables recording.
	Flight *flight.Journal
}

// Node is one cluster machine.
type Node struct {
	ID     int
	Host   *hw.Host
	Kernel *kernel.Kernel
	NICs   []*nic.NIC

	// CLIC is the node's CLIC endpoint once EnableCLIC has run.
	CLIC *clic.Endpoint

	// TCP is the node's TCP/IP stack once EnableTCP has run.
	TCP *tcpip.Stack

	// VIA is the node's user-level VIA provider once EnableVIA has run.
	VIA *via.Stack

	// GAMMA is the node's GAMMA stack once EnableGAMMA has run.
	GAMMA *gamma.Stack
}

// Cluster is the assembled system.
type Cluster struct {
	Eng    *sim.Engine
	Params model.Params
	Switch *ether.Switch
	Nodes  []*Node

	// Tel is the cluster-wide telemetry registry: every node's kernel,
	// NICs, links and protocol stack register into it with node/nic/link
	// labels, so one Prometheus or JSON export covers the whole cluster.
	Tel *telemetry.Registry

	macToNode map[ether.MAC]int

	// links retains every node uplink with its registered name, so
	// HealthDoc can report per-link counters alongside node snapshots.
	links []namedLink
}

type namedLink struct {
	name string
	link *ether.Link
}

// New builds hosts, adapters, links and the switch. Protocol stacks are
// attached afterwards with EnableCLIC (or the tcpip package's wiring).
func New(cfg Config) *Cluster {
	if cfg.Nodes < 1 {
		panic("cluster: need at least one node")
	}
	if cfg.NICsPerNode < 1 {
		cfg.NICsPerNode = 1
	}
	params := model.Default()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	eng := sim.NewEngine(cfg.Seed)
	c := &Cluster{
		Eng:       eng,
		Params:    params,
		Switch:    ether.NewSwitch(eng, "sw0", params.Link.SwitchLatency, params.Link.SwitchQueueFrames),
		Tel:       telemetry.NewRegistry(),
		macToNode: map[ether.MAC]int{},
	}
	c.Switch.Instrument(c.Tel)
	for id := 0; id < cfg.Nodes; id++ {
		host := hw.NewHost(eng, fmt.Sprintf("node%d", id), &c.Params)
		// Replace the host's private registry with the shared cluster one
		// before any subsystem registers metrics into it.
		host.Tel = c.Tel
		host.FR = cfg.Flight
		if j := cfg.Flight; j != nil {
			// The journal also takes the host's CPU, PCI and memory-bus
			// busy spans, so one export shows each frame and what was
			// busy under it.
			for _, r := range []*sim.Resource{host.CPU, host.PCI, host.MemBus} {
				r.OnSpan = func(start, end sim.Time) {
					j.Resource(r.Name(), int64(start), int64(end))
				}
			}
		}
		host.Instrument()
		node := &Node{
			ID:     id,
			Host:   host,
			Kernel: kernel.New(host),
		}
		for i := 0; i < cfg.NICsPerNode; i++ {
			mac := ether.NodeMAC(id, i)
			linkName := fmt.Sprintf("link-n%d-%d", id, i)
			link := ether.NewLink(eng, linkName,
				c.Params.Link.BitsPerSec, c.Params.Link.PropagationDelay)
			link.SetFaults(ether.Faults{
				Loss:        c.Params.Link.LossRate,
				Dup:         c.Params.Link.DupRate,
				Reorder:     c.Params.Link.ReorderRate,
				ReorderSpan: c.Params.Link.ReorderSpan,
				Corrupt:     c.Params.Link.CorruptRate,
			})
			link.Instrument(c.Tel, linkName)
			link.SetFlight(cfg.Flight)
			adapter := nic.New(host, fmt.Sprintf("node%d:eth%d", id, i), mac, c.Params.NIC, link)
			c.Switch.AddPort(link)
			c.links = append(c.links, namedLink{name: linkName, link: link})
			node.NICs = append(node.NICs, adapter)
			c.macToNode[mac] = id
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// Resolve maps (node, stripe index) to a destination MAC, striping over
// the destination's adapters for bonded setups.
func (c *Cluster) Resolve(node, stripe int) ether.MAC {
	nics := c.Nodes[node].NICs
	return nics[stripe%len(nics)].MAC
}

// NodeOf maps any adapter MAC back to its node.
func (c *Cluster) NodeOf(mac ether.MAC) (int, bool) {
	id, ok := c.macToNode[mac]
	return id, ok
}

// EnableCLIC attaches a CLIC endpoint with the given options to every
// node.
func (c *Cluster) EnableCLIC(opt clic.Options) {
	for _, n := range c.Nodes {
		n.CLIC = clic.New(n.Kernel, n.ID, n.NICs, opt, c.Resolve, c.NodeOf)
	}
}

// EnableTCP attaches a TCP/IP stack to every node's first NIC. A node
// runs exactly one stack per simulation (they would share the adapter's
// demux otherwise), matching how the paper measures them in separate
// runs.
func (c *Cluster) EnableTCP() {
	for _, n := range c.Nodes {
		c.assertBare(n)
		n.TCP = tcpip.NewStack(n.Kernel, n.ID, n.NICs[0], c.Resolve, c.NodeOf)
	}
}

// EnableVIA attaches the user-level VIA provider to every node.
func (c *Cluster) EnableVIA() {
	for _, n := range c.Nodes {
		c.assertBare(n)
		n.VIA = via.New(n.Host, n.ID, n.NICs[0], c.Resolve, c.NodeOf)
	}
}

// EnableGAMMA attaches the GAMMA stack to every node.
func (c *Cluster) EnableGAMMA() {
	for _, n := range c.Nodes {
		c.assertBare(n)
		n.GAMMA = gamma.New(n.Kernel, n.ID, n.NICs[0], c.Resolve, c.NodeOf)
	}
}

func (c *Cluster) assertBare(n *Node) {
	if n.CLIC != nil || n.TCP != nil || n.VIA != nil || n.GAMMA != nil {
		panic("cluster: node already runs a stack; build a separate cluster per stack")
	}
}

// HealthDoc captures the whole cluster's health document: one node
// snapshot per CLIC endpoint plus per-direction link counters, stamped
// with simulated time. The simulator is single-threaded, so call it
// only from outside the engine — between RunUntil slices, the same seam
// periodic metrics sampling uses.
func (c *Cluster) HealthDoc() health.Doc {
	sources := make([]health.Source, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.CLIC != nil {
			sources = append(sources, n.CLIC)
		}
	}
	doc := health.Capture("sim", int64(c.Eng.Now()), sources...)
	for _, nl := range c.links {
		doc.Links = append(doc.Links, nl.link.HealthSnapshot(nl.name)...)
	}
	return doc
}

// Run drives the simulation until the event queue drains or Stop is
// called, returning the final simulated time.
func (c *Cluster) Run() sim.Time { return c.Eng.Run() }

// Go starts an application process on no particular node (the caller's
// closure decides which endpoints it touches).
func (c *Cluster) Go(name string, fn func(*sim.Proc)) { c.Eng.Go(name, fn) }
