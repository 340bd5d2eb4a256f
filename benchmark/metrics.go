package main

import "fmt"

// metricDef names a metric and its unit. BENCHMARK.json lists the same names
// and units; a test holds the two together.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees. Every workload reports
// all four.
var endToEndMetrics = []metricDef{
	{"msgs_per_s", "1/s"},
	{"oneway_p50_us", "us"},
	{"cpu_us_per_msg", "us"},
	{"setup_s", "s"},
}

// perLayerMetrics are the single-layer figures of a traced run, grouped by
// layer. README.md says which end-to-end metric each should move, on which
// workload. A workload that does not run a layer reports 0 for it. Units
// starting with sim_ are on the simulated clock: exact, and identical on
// every run.
var perLayerMetrics = []metricDef{
	{"live.tx.send_call_us_p50", "us"},
	{"live.tx.send_call_us_p99", "us"},
	{"live.tx.send_busy_share", "share"},
	{"live.tx.frames_per_msg", "1/msg"},
	{"live.tx.socket_writes_per_msg", "1/msg"},
	{"live.tx.retransmits_per_kmsg", "1/kmsg"},
	{"live.tx.rto_backoffs_per_kmsg", "1/kmsg"},
	{"live.tx.pace_deferrals_per_kmsg", "1/kmsg"},
	{"live.tx.loss_injected_per_kmsg", "1/kmsg"},
	{"live.rx.recv_wait_us_p50", "us"},
	{"live.rx.recv_wait_share", "share"},
	{"live.rx.frames_per_burst", "1/burst"},
	{"live.rx.poll_hit_share", "share"},
	{"live.rx.agg_frames_per_run", "1/run"},
	{"live.rx.acks_per_msg", "1/msg"},
	{"live.ack_latency_us_p50", "us"},
	{"live.rx.port_drops", "count"},
	{"live.heap.allocs_per_msg", "1/msg"},
	{"live.heap.bytes_per_msg", "B/msg"},
	{"live.pool.allocs_per_kmsg", "1/kmsg"},
	{"live.lifecycle.newnode_us", "us"},
	{"live.lifecycle.handshake_us", "us"},
	{"live.lifecycle.close_us", "us"},

	{"proto.header_roundtrip_ns", "ns"},
	{"relwin.push_ack_ns", "ns"},
	{"relwin.reseq_inorder_ns", "ns"},
	{"relwin.reseq_parked_ns", "ns"},
	{"rto.observe_ns", "ns"},
	{"telemetry.counter_inc_ns", "ns"},
	{"telemetry.hist_observe_ns", "ns"},
	{"telemetry.snapshot_us", "us"},
	{"health.snapshot_us", "us"},
	{"sim.engine.events_per_s", "1/s"},
	{"sim.engine.proc_switch_ns", "ns"},
	{"cluster.new_us", "us"},

	{"clic.sim.lat0_us", "sim_us"},
	{"clic.sim.bw_1400_mbps", "sim_Mb/s"},
	{"clic.sim.bw_64k_mbps", "sim_Mb/s"},
	{"clic.sim.bw_64k_mtu9000_mbps", "sim_Mb/s"},
	{"clic.sim.frames_per_msg", "1/msg"},
	{"clic.sim.acks_per_msg", "1/msg"},
	{"clic.sim.send_call_us", "sim_us"},
	{"clic.sim.recv_call_us", "sim_us"},
	{"tcpip.sim.lat0_us", "sim_us"},
	{"tcpip.sim.bw_64k_mbps", "sim_Mb/s"},
	{"kernel.sim.irqs_per_frame", "1/frame"},
	{"hw.sim.memcpy_bytes_per_payload_byte", "B/B"},
	{"ether.sim.frames_per_msg", "1/msg"},

	{"app.oneway_p90_us", "us"},
	{"app.oneway_p99_us", "us"},
	{"app.goodput_mbps", "Mb/s"},
	{"proc.cpu_busy_cores", "cores"},
	{"proc.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.round_self_share", "share"},

	// The end-to-end metrics as the clock read them, before they are put in
	// units of the host-speed reference, and the reference itself.
	{"raw.msgs_per_s", "1/s"},
	{"raw.oneway_p50_us", "us"},
	{"raw.cpu_us_per_msg", "us"},
	{"raw.setup_s", "s"},
	{"host.slowness", "ratio"},
	{"host.ref_echo_us", "us"},
}

// withUnits pairs measured values with the units of defs. Every name in
// defs is reported, 0 where the workload measured nothing; a measured name
// that defs does not list is a bug.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared", name)
		}
	}
	return out, nil
}
