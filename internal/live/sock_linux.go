//go:build linux && (amd64 || arm64)

package live

import (
	"context"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// The receive unit is the socket-queue entry, and with UDP_GRO an entry
// is a whole GSO superframe: rxBatchSize entries per recvmmsg (the
// paper's NIC coalesces interrupts at a similar depth, §4.2; past ~8
// the syscall amortisation flattens), each in an rxSlotBytes slot that
// holds any datagram or superframe (never MSG_TRUNC), cut into at most
// rxMaxFrames frame views per batch — what a wake-up yields beyond
// that is carried over to the next readBatch, never dropped.
const (
	rxBatchSize = 16
	rxSlotBytes = 1 << 16
	rxMaxFrames = 4 * gsoMaxSegs
)

// shardsSupported caps Config.Shards: Linux distributes datagrams
// across an SO_REUSEPORT group by flow hash, so any reasonable shard
// count works. The cap only guards against absurd configs.
const shardsSupported = 64

// Socket options and cmsg types, spelled out because the frozen syscall
// package predates them. UDP_SEGMENT (linux ≥4.18) is the send half of
// the superframe: a cmsg carrying a uint16 segment size makes one
// sendmsg(2) carry a whole burst, which the kernel splits into
// per-segment datagrams far below the syscall layer. UDP_GRO (≥5.0) is
// the receive half: the socket queues superframes unsplit and recvmsg
// reports the segment size, an int, in a cmsg of that type.
const (
	soReusePort = 0xf
	solUDP      = 17 // IPPROTO_UDP as a sockopt level
	udpSegment  = 103
	udpGRO      = 104
)

// shardSockopts configures a shard socket: UDP_GRO always (best effort:
// where an old kernel or a seccomp filter refuses it the socket never
// queues a superframe and decode sees one-segment slots) and
// SO_REUSEPORT where asked.
func shardSockopts(rc syscall.RawConn, reusePort bool) error {
	var serr error
	if err := rc.Control(func(fd uintptr) {
		syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) //nolint:errcheck // best effort, see above
		if reusePort {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}
	}); err != nil {
		return err
	}
	return serr
}

// listenShards binds count (≥ 1) UDP sockets to one 127.0.0.1 port.
// Shard 0 binds without SO_REUSEPORT, so the kernel picks an ephemeral
// port nobody holds — with the option already set it may hand out the
// port of another sharded node of the process, and the two then split
// each other's datagrams. Shard 0 sets the option once it owns the
// port, and the rest join its reuseport group by binding that address
// with the option set. The kernel hashes each remote 4-tuple to one
// group member, so a peer's datagrams always reach the same shard. The
// group is complete before any traffic flows — membership changes
// would remap flows, which is why the shard set is fixed for the
// node's lifetime.
func listenShards(count int) ([]*net.UDPConn, error) {
	conns := make([]*net.UDPConn, 0, count)
	fail := func(err error) ([]*net.UDPConn, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	addr := "127.0.0.1:0"
	for i := 0; i < count; i++ {
		lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) error {
			return shardSockopts(rc, i > 0)
		}}
		pc, err := lc.ListenPacket(context.Background(), "udp4", addr)
		if err != nil {
			return fail(err)
		}
		c := pc.(*net.UDPConn)
		conns = append(conns, c)
		if i == 0 && count > 1 {
			rc, err := c.SyscallConn()
			if err == nil {
				err = shardSockopts(rc, true)
			}
			if err != nil {
				return fail(err)
			}
			addr = c.LocalAddr().String()
		}
	}
	return conns, nil
}

// mmsghdr mirrors struct mmsghdr from <sys/socket.h>: a msghdr plus the
// kernel-reported datagram length, padded to 8-byte alignment (64 bytes
// total on linux/amd64 and linux/arm64, whose syscall.Msghdr is 56).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// groCmsg is a slot's control buffer, CMSG_SPACE(sizeof(int)) bytes:
// room for exactly the one control message a shard socket asks for.
type groCmsg struct {
	hdr syscall.Cmsghdr
	seg int32
	_   [4]byte
}

// groCmsgLen is CMSG_LEN(sizeof(int)): header plus the segment size.
const groCmsgLen = syscall.SizeofCmsghdr + 4

// slabFree recycles reader slabs (rxBatchSize slots of rxSlotBytes)
// between the nodes of a process. A recycled slab needs no zeroing —
// frame views are cut to kernel-reported lengths — whereas a new 1 MiB
// one is usually carved from freed heap and cleared, i.e. touched end
// to end: ~0.5 ms before the node's first read, during which a new
// node's first hello sat in the socket (most of a loopback Handshake).
// A channel rather than a sync.Pool because the GC empties those. Its
// capacity bounds what an idle process retains (8 MiB), not how many
// readers may run.
var slabFree = make(chan []byte, 8)

// batchReader drains bursts of socket-queue entries with recvmmsg(2)
// through the runtime poller — the raw fd callback issues a
// non-blocking recvmmsg and, on EAGAIN, yields back to the poller
// instead of spinning — and cuts them into frames. All per-slot state
// (iovecs, sockaddr and control storage, buffers) is resident, so
// steady-state receive is allocation-free.
type batchReader struct {
	rc     syscall.RawConn
	msgs   [rxBatchSize]mmsghdr
	iovecs [rxBatchSize]syscall.Iovec
	names  [rxBatchSize]syscall.RawSockaddrInet4
	ctrls  [rxBatchSize]groCmsg
	bufs   [rxBatchSize][]byte
	froms  [rxBatchSize]netip.AddrPort

	// slab backs bufs; see slabFree.
	slab []byte

	// frames is the current batch: views into bufs, with the slot each
	// was cut from (which carries its source address).
	frames [rxMaxFrames][]byte
	slotOf [rxMaxFrames]uint8

	// readFn is the persistent poller callback (a per-call closure
	// would allocate on every wakeup); it reports through count/errno.
	// count is the slots the last recvmmsg filled; slot and off are
	// decode's cursor through them.
	readFn func(uintptr) bool
	count  int
	slot   int
	off    int
	errno  syscall.Errno
}

func newBatchReader(conn *net.UDPConn, rc syscall.RawConn) *batchReader {
	var slab []byte
	select {
	case slab = <-slabFree:
	default:
		slab = make([]byte, rxBatchSize*rxSlotBytes)
	}
	// count = slot = all: nothing left to hand out, and every slot's
	// value-result lengths are due the reset the first read performs.
	r := &batchReader{rc: rc, slab: slab, count: rxBatchSize, slot: rxBatchSize}
	for i := range r.bufs {
		r.bufs[i] = slab[i*rxSlotBytes : (i+1)*rxSlotBytes : (i+1)*rxSlotBytes]
		r.iovecs[i].Base = &r.bufs[i][0]
		r.iovecs[i].SetLen(rxSlotBytes)
		r.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.msgs[i].hdr.Control = (*byte)(unsafe.Pointer(&r.ctrls[i]))
		r.msgs[i].hdr.Iov = &r.iovecs[i]
		r.msgs[i].hdr.Iovlen = 1
	}
	r.readFn = r.recv
	return r
}

// close recycles the slab. Called when the rxLoop returns: every frame
// view has been consumed by then (deliver copies borrowed views).
func (r *batchReader) close() {
	select {
	case slabFree <- r.slab:
	default: // list full: the GC takes it
	}
}

// recv is the poller callback around one non-blocking recvmmsg. On an
// empty socket it returns false, which parks the caller in the poller
// until the socket is readable.
func (r *batchReader) recv(fd uintptr) bool {
	for {
		nn, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.msgs[0])), rxBatchSize,
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			r.count, r.errno = int(nn), 0
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			r.count, r.errno = 0, errno
		}
		return true
	}
}

// readBatch returns the next batch of frames: what is left of the
// previous recvmmsg if decode's frame table filled up before its slots
// ran out, else a fresh recvmmsg that blocks until the socket queue is
// non-empty and drains up to rxBatchSize entries — the
// interrupt-coalescing analogue: one wakeup, one syscall, a burst of
// frames. Before the syscall it resets the value-result msg_namelen and
// msg_controllen the kernel shrank — only in the slots the previous
// read filled, so a one-datagram exchange pays for one slot, not
// sixteen.
func (r *batchReader) readBatch() (int, error) {
	if r.slot == r.count {
		for i := 0; i < r.count; i++ {
			r.msgs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.names[0]))
			r.msgs[i].hdr.SetControllen(int(unsafe.Sizeof(r.ctrls[0])))
		}
		r.count, r.slot = 0, 0
		if err := r.rc.Read(r.readFn); err != nil {
			return 0, err // socket closed
		}
		if r.errno != 0 {
			return 0, r.errno
		}
	}
	return r.decode(), nil
}

// decode cuts the slots of the last recvmmsg into frame views, in place,
// from where the previous call stopped until the slots or the frame
// table run out, and returns the number of frames. A slot whose UDP_GRO
// cmsg gives a segment size is a superframe: every frame that long but
// the last, which may run short. Any other slot — the sender did not
// use GSO, the kernel refused UDP_GRO, the cmsg is truncated or not
// ours — is the same loop with one segment spanning the slot.
func (r *batchReader) decode() int {
	nf := 0
	for ; r.slot < r.count; r.slot, r.off = r.slot+1, 0 {
		i := r.slot
		n := int(r.msgs[i].len)
		seg := n
		if c := &r.ctrls[i]; r.msgs[i].hdr.Controllen >= groCmsgLen && c.hdr.Len >= groCmsgLen &&
			c.hdr.Level == solUDP && c.hdr.Type == udpGRO && c.seg > 0 && int(c.seg) < n {
			seg = int(c.seg)
		}
		if r.off == 0 {
			sa := &r.names[i]
			// in_port_t is big-endian in memory regardless of host order.
			pb := (*[2]byte)(unsafe.Pointer(&sa.Port))
			r.froms[i] = netip.AddrPortFrom(netip.AddrFrom4(sa.Addr),
				uint16(pb[0])<<8|uint16(pb[1]))
		}
		for {
			if nf == len(r.frames) {
				return nf // table full mid-wake-up: the next read resumes here
			}
			end := min(r.off+seg, n)
			r.frames[nf], r.slotOf[nf] = r.bufs[i][r.off:end], uint8(i)
			nf++
			if r.off = end; end == n {
				break
			}
		}
	}
	return nf
}

// datagram returns the i'th frame of the current batch and its source.
// The slice aliases the reader's slab and is valid until the next
// readBatch.
func (r *batchReader) datagram(i int) ([]byte, netip.AddrPort) {
	return r.frames[i], r.froms[r.slotOf[i]]
}

// gso support is probed on first use: the feature predates some
// container runtimes' seccomp allow-lists, so the first EINVAL/ENOTSUP
// from the kernel latches the fallback to plain sendmmsg.
type gsoState uint8

const (
	gsoUntried gsoState = iota
	gsoOn
	gsoOff
)

// txBatcher is the coalescing TX side: one resident set of
// mmsghdrs/iovecs per peer channel (all fragments of a burst share the
// destination, so one sockaddr serves the whole batch), flushed through
// the poller with MSG_DONTWAIT + wait-for-writability. Bursts of
// equal-sized fragments take the GSO superframe path — a single
// sendmsg whose iovec array gathers every staged buffer, segmented by
// the kernel at fragment boundaries — and mixed-size bursts fall back
// to one sendmmsg covering the batch.
type txBatcher struct {
	msgs   [gsoMaxSegs]mmsghdr
	iovecs [gsoMaxSegs]syscall.Iovec
	name   syscall.RawSockaddrInet4

	// GSO superframe state: one msghdr gathering all staged iovecs,
	// with the segment-size control message resident beside it.
	gso     gsoState
	gsoHdr  syscall.Msghdr
	gsoCtrl [24]byte // CmsgSpace(2): 16-byte cmsghdr + uint16 + padding

	// writeFn/gsoFn are the persistent poller callbacks (per-call
	// closures would allocate on every flush); off/cnt track flush
	// progress across partial sends, calls counts syscalls issued.
	writeFn func(uintptr) bool
	gsoFn   func(uintptr) bool
	off     int
	cnt     int
	calls   int
	gsoErr  syscall.Errno
}

func newTxBatcher() *txBatcher {
	t := &txBatcher{}
	for i := range t.msgs {
		t.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&t.name))
		t.msgs[i].hdr.Namelen = uint32(unsafe.Sizeof(t.name))
		t.msgs[i].hdr.Iov = &t.iovecs[i]
		t.msgs[i].hdr.Iovlen = 1
	}
	t.gsoHdr.Name = (*byte)(unsafe.Pointer(&t.name))
	t.gsoHdr.Namelen = uint32(unsafe.Sizeof(t.name))
	t.gsoHdr.Iov = &t.iovecs[0]
	t.gsoHdr.Control = &t.gsoCtrl[0]
	t.gsoHdr.SetControllen(len(t.gsoCtrl))
	// cmsghdr{len, level, type} in host order; len covers header + data.
	*(*uint64)(unsafe.Pointer(&t.gsoCtrl[0])) = 16 + 2 // CmsgLen(2)
	*(*int32)(unsafe.Pointer(&t.gsoCtrl[8])) = solUDP
	*(*int32)(unsafe.Pointer(&t.gsoCtrl[12])) = udpSegment
	t.writeFn = func(fd uintptr) bool {
		for t.off < t.cnt {
			nn, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&t.msgs[t.off])), uintptr(t.cnt-t.off),
				syscall.MSG_DONTWAIT, 0, 0)
			switch errno {
			case 0:
				t.calls++
				t.off += int(nn)
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // kernel send buffer full: wait for writability
			default:
				// Drop the rest of the burst: a lossy channel by design;
				// the NACK and RTO repairs recover whatever mattered.
				t.off = t.cnt
				return true
			}
		}
		return true
	}
	t.gsoFn = func(fd uintptr) bool {
		for {
			_, _, errno := syscall.Syscall6(syscall.SYS_SENDMSG, fd,
				uintptr(unsafe.Pointer(&t.gsoHdr)), syscall.MSG_DONTWAIT, 0, 0, 0)
			switch errno {
			case 0:
				t.calls++
				t.gsoErr = 0
				return true
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // kernel send buffer full: wait for writability
			default:
				t.gsoErr = errno
				return true
			}
		}
	}
	return t
}

// gsoEligible reports whether the first cnt staged fragments form a
// valid GSO superframe: every fragment but the last exactly segsize
// bytes (the kernel segments at fixed offsets; only the final segment
// may run short), within the skb payload and segment-count ceilings.
func gsoEligible(tc *liveTxChan, cnt, segsize int) bool {
	if cnt < 2 || cnt > gsoMaxSegs {
		return false
	}
	total := 0
	for i := 0; i < cnt; i++ {
		m := tc.stageFb[i].n
		total += m
		if m != segsize && (i != cnt-1 || m > segsize) {
			return false
		}
	}
	return total <= gsoMaxBytes
}

// writeBurst flushes the first cnt staged fragments of tc to addr in as
// few syscalls as the kernel allows — one GSO sendmsg when the burst
// is uniform, one sendmmsg otherwise — returning the syscall count.
// Guarded by tc.sendMu (stage and batcher have the same owner).
func writeBurst(n *Node, tc *liveTxChan, addr netip.AddrPort, cnt int) int {
	t := tc.batcher
	t.name.Family = syscall.AF_INET
	t.name.Addr = addr.Addr().As4()
	// in_port_t is big-endian in memory regardless of host order.
	pb := (*[2]byte)(unsafe.Pointer(&t.name.Port))
	port := addr.Port()
	pb[0], pb[1] = byte(port>>8), byte(port)
	total := 0
	for i := 0; i < cnt; i++ {
		fb := tc.stageFb[i]
		t.iovecs[i].Base = &fb.b[0]
		t.iovecs[i].SetLen(fb.n)
		total += fb.n
	}
	t.calls = 0
	segsize := tc.stageFb[0].n
	if t.gso != gsoOff && gsoEligible(tc, cnt, segsize) {
		t.gsoHdr.Iovlen = uint64(cnt)
		*(*uint16)(unsafe.Pointer(&t.gsoCtrl[16])) = uint16(segsize)
		tc.shard.raw.Write(t.gsoFn) //nolint:errcheck // lossy channel by design
		if t.gsoErr == 0 {
			t.gso = gsoOn
			return t.calls
		}
		// First rejection latches the sendmmsg fallback (old kernel or
		// seccomp filter); resend this burst the portable way.
		t.gso = gsoOff
	}
	t.off, t.cnt = 0, cnt
	tc.shard.raw.Write(t.writeFn) //nolint:errcheck // lossy channel by design
	return t.calls
}
