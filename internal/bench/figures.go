package bench

import (
	"math"

	"repro/internal/clic"
	"repro/internal/model"
	"repro/internal/sim"
)

// base returns a copy of the cost model to mutate per configuration.
func base(params *model.Params) model.Params {
	if params != nil {
		return *params
	}
	return model.Default()
}

// Fig4 regenerates the paper's Fig. 4: CLIC bandwidth vs message size for
// MTU {9000, 1500} × {0-copy, 1-copy}.
func Fig4(params *model.Params) *Report {
	r := &Report{
		ID:       "fig4",
		Title:    "CLIC bandwidth for different MTUs and 0/1-copy",
		PaperRef: "Fig. 4 — jumbo frames help more than 0-copy; 0-copy matters more at MTU 1500",
		XLabel:   "size (bytes)",
		YLabel:   "Mbit/s",
	}
	type cfg struct {
		label string
		mtu   int
		path  clic.SendPath
	}
	cfgs := []cfg{
		{"0-copy MTU 9000", 9000, clic.Path2ZeroCopy},
		{"1-copy MTU 9000", 9000, clic.Path3OneCopy},
		{"0-copy MTU 1500", 1500, clic.Path2ZeroCopy},
		{"1-copy MTU 1500", 1500, clic.Path3OneCopy},
	}
	sizes := SweepSizes()
	series := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		r.Columns = append(r.Columns, c.label)
		p := base(params)
		p.NIC.MTU = c.mtu
		opt := clic.DefaultOptions()
		opt.SendPath = c.path
		_, bw := BandwidthSweep(CLICPair(opt), &p)
		series[i] = bw
	}
	for si, s := range sizes {
		vals := make([]float64, len(cfgs))
		for ci := range cfgs {
			vals[ci] = series[ci][si]
		}
		r.AddRow(float64(s), vals...)
	}
	for i, c := range cfgs {
		r.Notef("%s: asymptotic %.0f Mb/s", c.label, AsymptoticBandwidth(sizes, series[i]))
	}
	// §2: "a copy uses system resources such as the memory and PCI buses,
	// processor, etc. thus having influence in the global performance of
	// system and applications" — the copy's cost shows up as sender CPU
	// consumed per byte moved, even where the wire rate is receiver-bound.
	for _, c := range cfgs[:2] {
		opt := clic.DefaultOptions()
		opt.SendPath = c.path
		p := base(params)
		p.NIC.MTU = c.mtu
		busy := senderCPUBusy(CLICPair(opt), &p)
		r.Notef("sender CPU utilisation streaming 1 MB messages, %s: %.0f%%", c.label, busy*100)
	}
	return r
}

// senderCPUBusy streams 8 MB and reports the sending node's CPU busy
// fraction over the transfer.
func senderCPUBusy(setup Setup, params *model.Params) float64 {
	pair := setup(params)
	const size, count = 1_000_000, 8
	payload := make([]byte, size)
	var start, end sim.Time
	pair.C.Go("streamer", func(p *sim.Proc) {
		start = p.Now()
		for i := 0; i < count; i++ {
			pair.Send(p, payload)
		}
	})
	pair.C.Go("sink", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			pair.Recv(p, size)
		}
		end = p.Now()
	})
	pair.C.Run()
	if end <= start {
		return 0
	}
	return float64(pair.C.Nodes[0].Host.CPU.BusyTime()) / float64(end-start)
}

// Fig5 regenerates Fig. 5: CLIC vs TCP/IP for MTU 9000 and 1500 (0-copy).
func Fig5(params *model.Params) *Report {
	r := &Report{
		ID:       "fig5",
		Title:    "CLIC vs TCP/IP bandwidth for MTU 9000 and 1500",
		PaperRef: "Fig. 5 — CLIC > 2x TCP even at TCP's best (MTU 9000); asymptotes ~600/450 vs TCP",
		XLabel:   "size (bytes)",
		YLabel:   "Mbit/s",
	}
	sizes := SweepSizes()
	var series [][]float64
	for _, mtu := range []int{9000, 1500} {
		p := base(params)
		p.NIC.MTU = mtu
		_, cbw := BandwidthSweep(CLICPair(clic.DefaultOptions()), &p)
		_, tbw := BandwidthSweep(TCPPair(), &p)
		series = append(series, cbw, tbw)
		r.Columns = append(r.Columns,
			colName("CLIC", mtu), colName("TCP", mtu))
	}
	for si, s := range sizes {
		vals := make([]float64, len(series))
		for ci := range series {
			vals[ci] = series[ci][si]
		}
		r.AddRow(float64(s), vals...)
	}
	for ci, col := range r.Columns {
		r.Notef("%s: asymptotic %.0f Mb/s, half-bandwidth at %d B",
			col, AsymptoticBandwidth(sizes, series[ci]), HalfBandwidthPoint(sizes, series[ci]))
	}
	return r
}

func colName(stack string, mtu int) string {
	if mtu == 9000 {
		return stack + " 9000"
	}
	return stack + " 1500"
}

// Fig6 regenerates Fig. 6: CLIC, MPI-CLIC, MPI (on TCP) and PVM (on TCP)
// bandwidths, at the paper's best configuration (MTU 9000, 0-copy).
func Fig6(params *model.Params) *Report {
	r := &Report{
		ID:       "fig6",
		Title:    "CLIC, MPI-CLIC, MPI(TCP) and PVM(TCP) bandwidth",
		PaperRef: "Fig. 6 — CLIC ≥ MPI-CLIC > MPI(TCP) ≥ PVM; MPI-CLIC ≥ 1.5x MPI(TCP) for long messages",
		XLabel:   "size (bytes)",
		YLabel:   "Mbit/s",
	}
	p := base(params)
	p.NIC.MTU = 9000
	setups := []Setup{
		CLICPair(clic.DefaultOptions()),
		MPICLICPair(),
		MPITCPPair(),
		PVMPair(),
	}
	labels := []string{"CLIC", "MPI-CLIC", "MPI (TCP)", "PVM (TCP)"}
	sizes := SweepSizes()
	series := make([][]float64, len(setups))
	for i, s := range setups {
		r.Columns = append(r.Columns, labels[i])
		_, series[i] = BandwidthSweep(s, &p)
	}
	for si, s := range sizes {
		vals := make([]float64, len(setups))
		for ci := range setups {
			vals[ci] = series[ci][si]
		}
		r.AddRow(float64(s), vals...)
	}
	mpiCLIC := AsymptoticBandwidth(sizes, series[1])
	mpiTCP := AsymptoticBandwidth(sizes, series[2])
	for i := range setups {
		r.Notef("%s: asymptotic %.0f Mb/s", labels[i], AsymptoticBandwidth(sizes, series[i]))
	}
	r.Notef("MPI-CLIC / MPI(TCP) asymptotic ratio: %.2fx (paper: >= 1.5x worst case)", mpiCLIC/mpiTCP)
	return r
}

// Fig7 regenerates Fig. 7: stage timing of a 1400 B packet through the
// CLIC pipeline, bottom-half (7a) vs direct-call (7b) receive.
func Fig7(params *model.Params) *Report {
	r := &Report{
		ID:       "fig7",
		Title:    "1400 B packet pipeline timing, bottom-half vs direct-call receive",
		PaperRef: "Fig. 7 — sender 0.7+4 µs; receiver driver ≈15 µs (a) vs ≈5 µs (b); BH+module ≈2 µs",
		XLabel:   "stage",
	}
	for _, mode := range []clic.RxMode{clic.RxBottomHalf, clic.RxDirectCall} {
		opt := clic.DefaultOptions()
		opt.RxMode = mode
		p := base(params)
		pl := PipelineTrace(&p, opt, 1400)
		r.Notef("--- %s", pl.Label)
		for _, line := range splitLines(pl.Table()) {
			r.Notef("%s", line)
		}
		if d, ok := pl.PostISR(); ok && mode == clic.RxBottomHalf {
			r.Notef("receiver post-ISR stages: %.1f µs", float64(d)/1000)
		}
	}
	a := PipelineTrace(params, clic.Options{RxMode: clic.RxBottomHalf, SendPath: clic.Path2ZeroCopy}, 1400)
	b := PipelineTrace(params, clic.Options{RxMode: clic.RxDirectCall, SendPath: clic.Path2ZeroCopy}, 1400)
	ta, tb := a.OneWay(), b.OneWay()
	r.Notef("end-to-end 1400 B: bottom-half %.1f µs, direct-call %.1f µs (improvement %.1f µs)",
		float64(ta)/1000, float64(tb)/1000, float64(ta-tb)/1000)
	return r
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// Headline regenerates the §4/§5 summary numbers (E5).
func Headline(params *model.Params) *Report {
	r := &Report{
		ID:       "headline",
		Title:    "headline results vs paper",
		PaperRef: "§4/§5 — 36 µs latency; ~600/~450 Mb/s; >2x TCP; half-bandwidth 4 KB vs 16 KB",
	}
	lat := Latency(CLICPair(clic.DefaultOptions()), params, 0, 20)
	r.Notef("CLIC 0-byte one-way latency: %.1f µs   (paper: 36 µs)", float64(lat)/1000)

	sizes := SweepSizes()
	for _, mtu := range []int{9000, 1500} {
		p := base(params)
		p.NIC.MTU = mtu
		_, cbw := BandwidthSweep(CLICPair(clic.DefaultOptions()), &p)
		_, tbw := BandwidthSweep(TCPPair(), &p)
		ca, ta := AsymptoticBandwidth(sizes, cbw), AsymptoticBandwidth(sizes, tbw)
		paper := map[int]string{9000: "600", 1500: "450"}[mtu]
		r.Notef("MTU %4d: CLIC %.0f Mb/s (paper ~%s), TCP %.0f Mb/s, ratio %.2fx (paper: >2x at 9000)",
			mtu, ca, paper, ta, ca/ta)
		if mtu == 1500 {
			r.Notef("MTU %4d: half-bandwidth CLIC at %d B (paper ~4 KB), TCP at %d B (paper ~16 KB)",
				mtu, HalfBandwidthPoint(sizes, cbw), HalfBandwidthPoint(sizes, tbw))
		}
	}
	return r
}

// Compare regenerates the §5 context comparison (E6): CLIC vs GAMMA vs
// VIA latency and bandwidth. GAMMA is also run on a 64-bit-PCI variant
// standing in for the GA620 testbed that let it reach 824 Mb/s.
func Compare(params *model.Params) *Report {
	r := &Report{
		ID:       "compare",
		Title:    "CLIC vs GAMMA vs VIA (latency and asymptotic bandwidth)",
		PaperRef: "§5 — CLIC 36 µs / ~600 Mb/s; GAMMA 9.5-32 µs / 768-824 Mb/s (modified drivers)",
	}
	p9 := base(params)
	p9.NIC.MTU = 9000

	clicLat := Latency(CLICPair(clic.DefaultOptions()), &p9, 0, 20)
	clicBW := StreamBandwidth(CLICPair(clic.DefaultOptions()), &p9, 1_000_000, 8)
	r.Notef("CLIC : latency %5.1f µs, bandwidth %.0f Mb/s   (paper: 36 µs, ~600 Mb/s)",
		float64(clicLat)/1000, clicBW)

	gLat := Latency(GAMMAPair(), &p9, 0, 20)
	gBW := StreamBandwidth(GAMMAPair(), &p9, 1_000_000, 8)
	r.Notef("GAMMA: latency %5.1f µs, bandwidth %.0f Mb/s   (paper: 32 µs / 768 Mb/s on 32-bit PCI class)",
		float64(gLat)/1000, gBW)

	// GA620-class hardware: 64-bit/33 MHz PCI doubles the burst rate.
	p64 := p9
	p64.PCI.DataBandwidth = 2 * p9.PCI.DataBandwidth
	g64BW := StreamBandwidth(GAMMAPair(), &p64, 1_000_000, 8)
	g64Lat := Latency(GAMMAPair(), &p64, 0, 20)
	r.Notef("GAMMA (64-bit PCI NIC): latency %5.1f µs, bandwidth %.0f Mb/s   (paper GA620: 824 Mb/s)",
		float64(g64Lat)/1000, g64BW)

	vLat := Latency(VIAPair(), &p9, 0, 20)
	vBW := StreamBandwidth(VIAPair(), &p9, 1_000_000, 8)
	r.Notef("VIA  : latency %5.1f µs, bandwidth %.0f Mb/s   (user-level polling, unreliable)",
		float64(vLat)/1000, vBW)

	r.Notef("ordering check: GAMMA latency < CLIC latency: %v; GAMMA bw > CLIC bw: %v",
		gLat < clicLat, gBW > clicBW)
	return r
}

// Interrupts regenerates the §2 interrupt-rate argument (E7): interrupts
// per second and achieved bandwidth as coalescing parameters vary.
func Interrupts(params *model.Params) *Report {
	r := &Report{
		ID:       "interrupts",
		Title:    "interrupt rate vs coalescing settings (streaming, MTU 1500)",
		PaperRef: "§2 — ~1 interrupt per 12 µs at line rate without coalescing; coalescing trades latency for CPU",
		XLabel:   "coalesce µs",
		Columns:  []string{"kIRQ/s", "bandwidth Mb/s", "0B latency µs"},
	}
	for _, usecs := range []int{0, 20, 40, 100, 250} {
		p := base(params)
		p.NIC.CoalesceUsecs = usecs
		if usecs == 0 {
			p.NIC.CoalesceFrames = 1 // coalescing off
		}
		irqRate, bw := irqRateAndBW(&p)
		lat := Latency(CLICPair(clic.DefaultOptions()), &p, 0, 10)
		r.AddRow(float64(usecs), irqRate/1000, bw, float64(lat)/1000)
	}
	r.Notef("uncoalesced line-rate flooding approaches the paper's 1-interrupt-per-frame regime")
	return r
}

// irqRateAndBW streams 8 MB with the paper's endpoint options and
// reports the receiver's interrupt rate and the achieved bandwidth.
func irqRateAndBW(p *model.Params) (irqPerSec, mbps float64) {
	pair := CLICPair(clic.DefaultOptions())(p)
	const size = 1_000_000
	const count = 8
	payload := make([]byte, size)
	var first, last sim.Time
	pair.C.Go("streamer", func(proc *sim.Proc) {
		for i := 0; i < count; i++ {
			pair.Send(proc, payload)
		}
	})
	pair.C.Go("sink", func(proc *sim.Proc) {
		for i := 0; i < count; i++ {
			pair.Recv(proc, size)
			if i == 0 {
				first = proc.Now()
			}
		}
		last = proc.Now()
	})
	pair.C.Run()
	dur := float64(last-first) / 1e9
	irqs := float64(pair.C.Nodes[1].Kernel.Interrupts.Value())
	bytes := float64(size) * (count - 1)
	return irqs / dur, bytes * 8 / dur / 1e6
}

// Paths regenerates the Fig. 1 data-path ablation (E8): bandwidth and
// latency for the four ways of moving data to the NIC.
func Paths(params *model.Params) *Report {
	r := &Report{
		ID:       "paths",
		Title:    "Fig. 1 send-path ablation (MTU 1500)",
		PaperRef: "Fig. 1 — path 2 (0-copy DMA) is the Gigabit CLIC; path 4 was the Fast Ethernet CLIC",
		XLabel:   "path",
		Columns:  []string{"bandwidth Mb/s", "0B latency µs"},
	}
	for _, path := range []clic.SendPath{clic.Path1PIO, clic.Path2ZeroCopy, clic.Path3OneCopy, clic.Path4TwoCopy} {
		opt := clic.DefaultOptions()
		opt.SendPath = path
		p := base(params)
		bw := StreamBandwidth(CLICPair(opt), &p, 1_000_000, 6)
		lat := Latency(CLICPair(opt), &p, 0, 10)
		r.AddRow(float64(path), bw, float64(lat)/1000)
	}
	r.Notef("expected ordering: path2 (0-copy DMA) >= path3 (1-copy DMA) > path4/path1 (PIO-bound)")
	return r
}

// Frag regenerates the fragmentation-offload extension (E9): the §2
// technique the paper defers to future work, at MTU 1500.
func Frag(params *model.Params) *Report {
	r := &Report{
		ID:       "frag",
		Title:    "NIC fragmentation offload on/off (MTU 1500)",
		PaperRef: "§2 — offload sends super-MTU packets to the NIC, cutting per-frame host work",
		XLabel:   "size (bytes)",
		Columns:  []string{"offload off Mb/s", "offload on Mb/s"},
	}
	// The offload technique comes from the Alteon Acenic (§2), which
	// carries 2 MB of on-board DRAM — without that depth a 60 KB
	// super-packet cannot pipeline DMA against transmission.
	withOffload := func() model.Params {
		p := base(params)
		p.NIC.FragOffload = true
		p.NIC.BufferBytes = 2 << 20
		return p
	}
	sizes := []int{10_000, 100_000, 1_000_000}
	for _, s := range sizes {
		off := base(params)
		bwOff := StreamBandwidth(CLICPair(clic.DefaultOptions()), &off, s, 6)
		on := withOffload()
		bwOn := StreamBandwidth(CLICPair(clic.DefaultOptions()), &on, s, 6)
		r.AddRow(float64(s), bwOff, bwOn)
	}
	offP := base(params)
	onP := withOffload()
	irqOff, _ := irqRateAndBW(&offP)
	irqOn, _ := irqRateAndBW(&onP)
	r.Notef("receiver interrupt rate: %.0f/s without offload, %.0f/s with (fewer host frames)", irqOff, irqOn)
	r.Notef("the paper declines the offload to keep unmodified drivers and flags it as future work")
	return r
}

// Bonding regenerates the §5 channel-bonding feature (E10), plus the
// intra-node path.
func Bonding(params *model.Params) *Report {
	r := &Report{
		ID:       "bonding",
		Title:    "channel bonding and intra-node messaging",
		PaperRef: "§5 — several NICs increase bandwidth through a switch; same-node messages avoid the NIC",
		XLabel:   "NICs",
		Columns:  []string{"Fast Ethernet Mb/s", "Gigabit Mb/s"},
	}
	// Bonding pays off when the link is the bottleneck — the Fast
	// Ethernet clusters the feature comes from. On Gigabit links the
	// shared 33 MHz PCI bus saturates first and a second NIC adds
	// nothing, which the Gigabit column demonstrates.
	fe := base(params)
	fe.Link.BitsPerSec = 100_000_000 // Fast Ethernet links
	ge := base(params)
	ge.NIC.MTU = 9000
	fe1 := StreamBandwidth(CLICPair(clic.DefaultOptions()), &fe, 2_000_000, 6)
	fe2 := StreamBandwidth(BondedCLICPair(clic.DefaultOptions(), 2), &fe, 2_000_000, 6)
	ge1 := StreamBandwidth(CLICPair(clic.DefaultOptions()), &ge, 2_000_000, 6)
	ge2 := StreamBandwidth(BondedCLICPair(clic.DefaultOptions(), 2), &ge, 2_000_000, 6)
	r.AddRow(1, fe1, ge1)
	r.AddRow(2, fe2, ge2)
	r.Notef("Fast Ethernet bonding speedup: %.2fx (link-bound: bonding pays)", fe2/fe1)
	r.Notef("Gigabit bonding speedup: %.2fx (PCI-bound: a second NIC on the same bus cannot help)", ge2/ge1)

	// Intra-node: same-processor message latency.
	lat := intraNodeLatency(&ge)
	r.Notef("intra-node 0-byte send+recv: %.1f µs (no NIC, one kernel copy)", float64(lat)/1000)
	if math.IsNaN(float64(lat)) {
		r.Notef("intra-node measurement failed")
	}
	return r
}

func intraNodeLatency(p *model.Params) sim.Time {
	pair := CLICPair(clic.DefaultOptions())(p)
	var elapsed sim.Time
	pair.C.Go("local", func(proc *sim.Proc) {
		ep := pair.C.Nodes[0].CLIC
		start := proc.Now()
		const rounds = 10
		for i := 0; i < rounds; i++ {
			mustSend(ep.Send(proc, 0, 50, nil))
			ep.Recv(proc, 50)
		}
		elapsed = (proc.Now() - start) / rounds
	})
	pair.C.Run()
	return elapsed
}

// All returns every experiment in DESIGN.md's per-experiment index.
func All(params *model.Params) []*Report {
	return []*Report{
		Fig4(params), Fig5(params), Fig6(params), Fig7(params),
		Headline(params), Compare(params), Interrupts(params),
		Paths(params), Frag(params), Bonding(params), Multiprog(params),
		Collectives(params), Jitter(params),
	}
}
