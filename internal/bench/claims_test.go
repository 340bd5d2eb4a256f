package bench

import (
	"testing"

	"repro/internal/clic"
	"repro/internal/model"
)

// TestPaperClaims pins the reproduction to the paper's headline results
// (EXPERIMENTS.md C1-C7): if a model or protocol change drifts the
// system out of the paper's regime, this fails. Tolerances are wide
// enough for benign calibration drift, tight enough to catch regressions.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-claims audit is not short")
	}

	// C1: 0-byte one-way latency ≈ 36 µs.
	lat := float64(Latency(CLICPair(clic.DefaultOptions()), nil, 0, 20)) / 1000
	if lat < 30 || lat > 42 {
		t.Errorf("C1: latency %.1f µs, paper 36 µs", lat)
	}

	p9 := model.Default()
	p9.NIC.MTU = 9000
	p15 := model.Default()

	// C2: asymptotic bandwidths ≈ 600 / 450 Mb/s.
	clic9 := StreamBandwidth(CLICPair(clic.DefaultOptions()), &p9, 2_000_000, 6)
	clic15 := StreamBandwidth(CLICPair(clic.DefaultOptions()), &p15, 2_000_000, 6)
	if clic9 < 540 || clic9 > 720 {
		t.Errorf("C2a: CLIC@9000 %.0f Mb/s, paper ~600", clic9)
	}
	if clic15 < 400 || clic15 > 510 {
		t.Errorf("C2b: CLIC@1500 %.0f Mb/s, paper ~450", clic15)
	}
	if clic9 <= clic15 {
		t.Errorf("C6: jumbo (%.0f) must beat standard MTU (%.0f)", clic9, clic15)
	}

	// C3: CLIC > 2x TCP at both MTUs (paper: at TCP's best, MTU 9000).
	tcp9 := StreamBandwidth(TCPPair(), &p9, 2_000_000, 6)
	tcp15 := StreamBandwidth(TCPPair(), &p15, 2_000_000, 6)
	if clic9 < 1.9*tcp9 {
		t.Errorf("C3: CLIC@9000 %.0f vs TCP %.0f — ratio %.2f below ~2x", clic9, tcp9, clic9/tcp9)
	}
	if clic15 < 2*tcp15 {
		t.Errorf("C3': CLIC@1500 %.0f vs TCP %.0f — ratio %.2f below 2x", clic15, tcp15, clic15/tcp15)
	}

	// C4: TCP reaches half bandwidth at a (several-times) larger message
	// size than CLIC. Checked at the sizes bracketing the crossovers.
	clicHalf := Bandwidth(CLICPair(clic.DefaultOptions()), &p15, 12_000, 5)
	tcpHalf := Bandwidth(TCPPair(), &p15, 12_000, 5)
	if clicHalf < clic15/2 {
		t.Errorf("C4: CLIC at 12 kB is %.0f, below half of %.0f", clicHalf, clic15)
	}
	if tcpHalf >= tcp15/2 {
		t.Errorf("C4: TCP at 12 kB already reaches half bandwidth (%.0f of %.0f)", tcpHalf, tcp15)
	}

	// C5: MPI-CLIC ≥ 1.5x MPI-TCP for long messages.
	mpiCLIC := Bandwidth(MPICLICPair(), &p9, 2_000_000, 2)
	mpiTCP := Bandwidth(MPITCPPair(), &p9, 2_000_000, 2)
	if mpiCLIC < 1.5*mpiTCP {
		t.Errorf("C5: MPI-CLIC %.0f vs MPI-TCP %.0f — ratio %.2f below 1.5x",
			mpiCLIC, mpiTCP, mpiCLIC/mpiTCP)
	}

	// C7: the direct-call receive path (Fig. 8b) improves the 1400 B
	// end-to-end time by the better part of the driver stage.
	bh := PipelineTrace(nil, clic.Options{RxMode: clic.RxBottomHalf, SendPath: clic.Path2ZeroCopy}, 1400)
	dc := PipelineTrace(nil, clic.Options{RxMode: clic.RxDirectCall, SendPath: clic.Path2ZeroCopy}, 1400)
	ta, tb := bh.OneWay(), dc.OneWay()
	if improvement := float64(ta-tb) / 1000; improvement < 8 || improvement > 20 {
		t.Errorf("C7: direct-call improvement %.1f µs, paper ≈ 13 µs (15+2 → 5+2 plus BH)", improvement)
	}
}
