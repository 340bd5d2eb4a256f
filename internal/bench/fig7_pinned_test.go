package bench

import (
	"testing"

	"repro/internal/clic"
)

// TestFig7Pinned pins the simulated Fig. 7 numbers of a 1400 B packet to
// the nanosecond: the one-way time (send call → recv return), the
// receiver's driver stage (NIC completion → end of the mode's ISR-side
// work) and, for bottom halves, the post-ISR stages (ISR end → copy to
// user). A change to how the pipeline is recorded must not move them.
func TestFig7Pinned(t *testing.T) {
	cases := []struct {
		mode    clic.RxMode
		name    string
		oneWay  int64
		driver  int64
		postISR int64 // bottom halves only
	}{
		{clic.RxBottomHalf, "bh", 99_298, 21_738, 6_500},
		{clic.RxDirectCall, "direct", 85_560, 9_000, 0},
	}
	for _, tc := range cases {
		opt := clic.DefaultOptions()
		opt.RxMode = tc.mode
		pl := PipelineTrace(nil, opt, 1400)
		if got := pl.OneWay(); got != tc.oneWay {
			t.Errorf("%s: one-way %d ns, want %d", tc.name, got, tc.oneWay)
		}
		if got, _ := pl.DriverStage(); got != tc.driver {
			t.Errorf("%s: driver stage %d ns, want %d", tc.name, got, tc.driver)
		}
		if tc.mode == clic.RxBottomHalf {
			if got, _ := pl.PostISR(); got != tc.postISR {
				t.Errorf("%s: post-ISR %d ns, want %d", tc.name, got, tc.postISR)
			}
		}
	}
}
