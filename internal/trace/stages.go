// Package trace names the stages of CLIC's packet pipeline — the rows of
// the paper's Fig. 7, which times a 1400-byte packet through CLIC's send
// syscall, module, driver, buses, wire, interrupt, bottom half and final
// copy — and the protocol incidents the flight recorder journals.
//
// The names live in one place so the flight recorder's spans/points, the
// Fig. 7 figures and the clictrace reports all speak the same names (and
// the cliclint tracestage analyzer can reject ad-hoc literals).
package trace

// Span stage names for the flight recorder — one per pipeline stage a
// frame occupies for a duration (begin/end pairs), named after the rows
// of the paper's Fig. 7 table.
const (
	SpanSendSyscall = "send-syscall" // send syscall entry → exit
	SpanWinWait     = "win-wait"     // blocked on reliable-window space
	SpanModuleSend  = "module-send"  // CLIC_MODULE header compose + data path
	SpanDriverTx    = "driver-tx"    // driver maps SK_BUFF, posts descriptor
	SpanTxDMA       = "tx-dma"       // NIC pulls the frame over the PCI bus
	SpanWire        = "wire"         // first bit serialised → delivered at peer NIC
	SpanRxDMA       = "rx-dma"       // NIC pushes the frame to system memory
	SpanISR         = "isr"          // driver interrupt service routine
	SpanBHQueue     = "bh-queue"     // queued for softirq → bottom half starts
	SpanBottomHalf  = "bottom-half"  // bottom-half body (CLIC_MODULE dispatch)
	SpanModuleRx    = "module-rx"    // CLIC_MODULE per-packet receive entry
	SpanCopyToUser  = "copy-to-user" // final system → user memory copy
	SpanBHDispatch  = "bh-dispatch"  // kernel: softirq queue wait (frame 0)
)

// Point event names for the flight recorder — instantaneous protocol
// incidents attributed to a frame (or frame 0 for channel-level events).
const (
	PointNackSent      = "nack-sent"
	PointNackRecv      = "nack-recv"
	PointRetransmit    = "retransmit"
	PointRTOBackoff    = "rto-backoff"
	PointCoalesceFlush = "coalesce-flush"
	PointDrop          = "drop"
	PointChannelFailed = "channel-failed"
	PointDeferred      = "deferred-tx"
	PointHello         = "hello" // handshake completed, either side (arg = peer)
	PointBye           = "bye"   // peer announced its departure (arg = peer)
)

// SpanOrder is the canonical pipeline order for breakdown tables and
// Chrome-trace track layout: send side top to bottom, then the wire, then
// the receive side — the reading order of the paper's Fig. 7.
var SpanOrder = []string{
	SpanSendSyscall,
	SpanWinWait,
	SpanModuleSend,
	SpanDriverTx,
	SpanTxDMA,
	SpanWire,
	SpanRxDMA,
	SpanISR,
	SpanBHQueue,
	SpanBottomHalf,
	SpanModuleRx,
	SpanCopyToUser,
	SpanBHDispatch,
}
