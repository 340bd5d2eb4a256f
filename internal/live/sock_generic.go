//go:build !linux || (!amd64 && !arm64)

package live

import (
	"net"
	"net/netip"
	"syscall"

	"repro/internal/telemetry"
)

// rxBatchSize is 1 on the portable path: without recvmmsg every wakeup
// yields a single datagram, so a burst is never deep and the direct-call
// rung never hands back on depth (that requires rxBatchSize > 1).
const rxBatchSize = 1

// shardsSupported is 1 on the portable path: setting SO_REUSEPORT
// portably isn't possible without golang.org/x/sys, so Config.Shards
// clamps to a single socket and the node runs exactly as before.
const shardsSupported = 1

// listenShards binds the node's single socket (count is already
// clamped to 1 on this platform).
func listenShards(count int) ([]*net.UDPConn, error) {
	_ = count
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return []*net.UDPConn{c}, nil
}

// batchReader is the portable receive path: one datagram per wakeup via
// the net package (itself allocation-free with ReadFromUDPAddrPort).
// The Linux build replaces this with a recvmmsg burst reader; the rest
// of the receive path is shared and simply sees bursts of size one.
type batchReader struct {
	conn *net.UDPConn
	buf  [65536]byte
	from netip.AddrPort
	n    int

	// drops stays 0: the portable socket reports no receive-queue drops.
	drops telemetry.Counter
}

func newBatchReader(conn *net.UDPConn, _ syscall.RawConn) *batchReader {
	return &batchReader{conn: conn}
}

// close has nothing to release: the buffer is part of the reader.
func (r *batchReader) close() {}

// readBatch blocks for one datagram.
func (r *batchReader) readBatch() (int, error) {
	n, from, err := r.conn.ReadFromUDPAddrPort(r.buf[:])
	if err != nil {
		return 0, err
	}
	r.n = n
	r.from = canonAddrPort(from)
	return 1, nil
}

// datagram returns the i'th datagram of the current batch and its
// source. The slice aliases the reader's buffer and is valid until the
// next readBatch.
func (r *batchReader) datagram(int) ([]byte, netip.AddrPort) {
	return r.buf[:r.n], r.from
}

// txBatcher carries no state on the portable path: staged fragments are
// written one datagram at a time.
type txBatcher struct{}

func newTxBatcher() *txBatcher { return &txBatcher{} }

// writeBurst writes fbs to addr through tc's shard, one write syscall
// per datagram (no sendmmsg outside Linux), returning the syscall count.
func writeBurst(tc *liveTxChan, addr netip.AddrPort, fbs []*frameBuf) int {
	for _, fb := range fbs {
		tc.shard.conn.WriteToUDPAddrPort(fb.b[:fb.n], addr) //nolint:errcheck // lossy channel by design
	}
	return len(fbs)
}
