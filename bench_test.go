package repro

// One testing.B benchmark per table/figure of the paper's evaluation
// (DESIGN.md experiments E1-E10). Each iteration runs a representative
// workload of the corresponding experiment on a fresh simulated cluster
// and reports the headline quantity (Mb/s or µs) as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature. cmd/clicbench produces
// the full tables and sweeps.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/clic"
	"repro/internal/model"
	"repro/internal/trace"
)

// reportBandwidth runs one 1 MB burst measurement per iteration.
func reportBandwidth(b *testing.B, setup bench.Setup, params *model.Params, size int) {
	b.Helper()
	var mbps float64
	for i := 0; i < b.N; i++ {
		mbps = bench.Bandwidth(setup, params, size, 1)
	}
	b.ReportMetric(mbps, "Mb/s")
}

// reportLatency runs one 0-byte ping-pong measurement per iteration.
func reportLatency(b *testing.B, setup bench.Setup, params *model.Params) {
	b.Helper()
	var us float64
	for i := 0; i < b.N; i++ {
		us = float64(bench.Latency(setup, params, 0, 10)) / 1000
	}
	b.ReportMetric(us, "µs/oneway")
}

func mtuParams(mtu int) *model.Params {
	p := model.Default()
	p.NIC.MTU = mtu
	return &p
}

// BenchmarkFig4 — E1: CLIC bandwidth, MTU x copy discipline (Fig. 4).
func BenchmarkFig4(b *testing.B) {
	for _, mtu := range []int{9000, 1500} {
		for _, cfg := range []struct {
			name string
			path clic.SendPath
		}{{"0copy", clic.Path2ZeroCopy}, {"1copy", clic.Path3OneCopy}} {
			opt := clic.DefaultOptions()
			opt.SendPath = cfg.path
			b.Run(fmt.Sprintf("mtu%d/%s", mtu, cfg.name), func(b *testing.B) {
				reportBandwidth(b, bench.CLICPair(opt), mtuParams(mtu), 1_000_000)
			})
		}
	}
}

// BenchmarkFig5 — E2: CLIC vs TCP/IP (Fig. 5).
func BenchmarkFig5(b *testing.B) {
	for _, mtu := range []int{9000, 1500} {
		b.Run(fmt.Sprintf("clic/mtu%d", mtu), func(b *testing.B) {
			reportBandwidth(b, bench.CLICPair(clic.DefaultOptions()), mtuParams(mtu), 1_000_000)
		})
		b.Run(fmt.Sprintf("tcp/mtu%d", mtu), func(b *testing.B) {
			reportBandwidth(b, bench.TCPPair(), mtuParams(mtu), 1_000_000)
		})
	}
}

// BenchmarkFig6 — E3: message layers (Fig. 6).
func BenchmarkFig6(b *testing.B) {
	setups := []struct {
		name  string
		setup bench.Setup
	}{
		{"clic", bench.CLICPair(clic.DefaultOptions())},
		{"mpi-clic", bench.MPICLICPair()},
		{"mpi-tcp", bench.MPITCPPair()},
		{"pvm-tcp", bench.PVMPair()},
	}
	for _, s := range setups {
		b.Run(s.name, func(b *testing.B) {
			reportBandwidth(b, s.setup, mtuParams(9000), 1_000_000)
		})
	}
}

// BenchmarkFig7 — E4: 1400 B pipeline timing (Fig. 7).
func BenchmarkFig7(b *testing.B) {
	for _, mode := range []struct {
		name string
		rx   clic.RxMode
	}{{"bottom-half", clic.RxBottomHalf}, {"direct-call", clic.RxDirectCall}} {
		b.Run(mode.name, func(b *testing.B) {
			opt := clic.DefaultOptions()
			opt.RxMode = mode.rx
			var us float64
			for i := 0; i < b.N; i++ {
				pl := bench.PipelineTrace(nil, opt, 1400)
				if _, ok := pl.Span(trace.SpanCopyToUser); !ok {
					b.Fatal("pipeline trace incomplete")
				}
				us = float64(pl.OneWay()) / 1000
			}
			b.ReportMetric(us, "µs/packet")
		})
	}
}

// BenchmarkHeadline — E5: the §4/§5 summary quantities.
func BenchmarkHeadline(b *testing.B) {
	b.Run("latency0B", func(b *testing.B) {
		reportLatency(b, bench.CLICPair(clic.DefaultOptions()), nil)
	})
	b.Run("asym-mtu9000", func(b *testing.B) {
		var mbps float64
		for i := 0; i < b.N; i++ {
			mbps = bench.StreamBandwidth(bench.CLICPair(clic.DefaultOptions()), mtuParams(9000), 1_000_000, 8)
		}
		b.ReportMetric(mbps, "Mb/s")
	})
}

// BenchmarkCompare — E6: CLIC vs GAMMA vs VIA (§5).
func BenchmarkCompare(b *testing.B) {
	setups := []struct {
		name  string
		setup bench.Setup
	}{
		{"clic", bench.CLICPair(clic.DefaultOptions())},
		{"gamma", bench.GAMMAPair()},
		{"via", bench.VIAPair()},
	}
	for _, s := range setups {
		b.Run(s.name+"/latency", func(b *testing.B) {
			reportLatency(b, s.setup, nil)
		})
	}
}

// BenchmarkInterrupts — E7: the §2 interrupt-rate argument.
func BenchmarkInterrupts(b *testing.B) {
	for _, usecs := range []int{0, 40, 100} {
		b.Run(fmt.Sprintf("coalesce%dus", usecs), func(b *testing.B) {
			p := model.Default()
			p.NIC.CoalesceUsecs = usecs
			if usecs == 0 {
				p.NIC.CoalesceFrames = 1
			}
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.StreamBandwidth(bench.CLICPair(clic.DefaultOptions()), &p, 1_000_000, 8)
			}
			b.ReportMetric(mbps, "Mb/s")
		})
	}
}

// BenchmarkPaths — E8: Fig. 1 data-path ablation.
func BenchmarkPaths(b *testing.B) {
	for _, path := range []clic.SendPath{clic.Path1PIO, clic.Path2ZeroCopy, clic.Path3OneCopy, clic.Path4TwoCopy} {
		b.Run(fmt.Sprintf("path%d", path), func(b *testing.B) {
			opt := clic.DefaultOptions()
			opt.SendPath = path
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.StreamBandwidth(bench.CLICPair(opt), nil, 1_000_000, 6)
			}
			b.ReportMetric(mbps, "Mb/s")
		})
	}
}

// BenchmarkFrag — E9: NIC fragmentation offload (the paper's future-work
// extension).
func BenchmarkFrag(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			p := model.Default()
			if on {
				p.NIC.FragOffload = true
				p.NIC.BufferBytes = 2 << 20
			}
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.StreamBandwidth(bench.CLICPair(clic.DefaultOptions()), &p, 1_000_000, 6)
			}
			b.ReportMetric(mbps, "Mb/s")
		})
	}
}

// BenchmarkBonding — E10: channel bonding on link-bound Fast Ethernet.
func BenchmarkBonding(b *testing.B) {
	for _, nics := range []int{1, 2} {
		b.Run(fmt.Sprintf("nics%d", nics), func(b *testing.B) {
			p := model.Default()
			p.Link.BitsPerSec = 100_000_000
			setup := bench.CLICPair(clic.DefaultOptions())
			if nics > 1 {
				setup = bench.BondedCLICPair(clic.DefaultOptions(), nics)
			}
			var mbps float64
			for i := 0; i < b.N; i++ {
				mbps = bench.StreamBandwidth(setup, &p, 1_000_000, 6)
			}
			b.ReportMetric(mbps, "Mb/s")
		})
	}
}
