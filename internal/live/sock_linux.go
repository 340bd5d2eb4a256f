//go:build linux && (amd64 || arm64)

package live

import (
	"context"
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"repro/internal/telemetry"
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

// shardSockopts configures a shard socket: UDP_GRO and SO_RXQ_OVFL
// always (best effort: where an old kernel or a seccomp filter refuses
// UDP_GRO the socket never queues a superframe and decode sees
// one-segment slots; without SO_RXQ_OVFL no receive-queue drop is
// counted) and SO_REUSEPORT where asked.
func shardSockopts(rc syscall.RawConn, reusePort bool) error {
	var serr error
	if err := rc.Control(func(fd uintptr) {
		syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)                          //nolint:errcheck // best effort, see above
		syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1) //nolint:errcheck // best effort, see above
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

// rxCmsg is one CMSG_SPACE(4) control message. A slot has room for the
// two a shard socket is sent: the UDP_GRO segment size of a superframe,
// and, once the socket has dropped any, SO_RXQ_OVFL's count of
// datagrams it dropped for a full receive queue.
type rxCmsg struct {
	hdr syscall.Cmsghdr
	val int32
	_   [4]byte
}

// cmsgLen4 is CMSG_LEN(4): header plus a 4-byte value.
const cmsgLen4 = syscall.SizeofCmsghdr + 4

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
	ctrls  [rxBatchSize][2]rxCmsg
	bufs   [rxBatchSize][]byte
	froms  [rxBatchSize]netip.AddrPort

	// slab backs bufs; see slabFree.
	slab []byte

	// dropSeen is the socket's last SO_RXQ_OVFL count; drops sums its
	// rises (live_rx_sock_drops_total).
	dropSeen uint32
	drops    telemetry.Counter

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

// segment walks slot i's control messages as CMSG_NXTHDR does (one
// that overruns the buffer ends the walk; one too short for its value,
// or not ours, is skipped) and returns the UDP_GRO segment size, 0 if
// absent. An SO_RXQ_OVFL count adds its rise to drops: it is
// cumulative, so reading a slot twice adds nothing.
func (r *batchReader) segment(i int) int32 {
	ctrl := unsafe.Slice((*byte)(unsafe.Pointer(&r.ctrls[i])), unsafe.Sizeof(r.ctrls[i]))
	ctrl = ctrl[:min(r.msgs[i].hdr.Controllen, uint64(len(ctrl)))]
	var seg int32
	for len(ctrl) >= syscall.SizeofCmsghdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
		if h.Len < syscall.SizeofCmsghdr || h.Len > uint64(len(ctrl)) {
			break
		}
		if h.Len >= cmsgLen4 {
			v := *(*int32)(unsafe.Pointer(&ctrl[syscall.SizeofCmsghdr]))
			if h.Level == solUDP && h.Type == udpGRO {
				seg = v
			} else if d := uint32(v); h.Level == syscall.SOL_SOCKET && h.Type == syscall.SO_RXQ_OVFL && int32(d-r.dropSeen) > 0 {
				r.drops.Addn(int64(d - r.dropSeen))
				r.dropSeen = d
			}
		}
		ctrl = ctrl[min(uint64(len(ctrl)), (h.Len+7)&^7):] // CMSG_ALIGN on 64-bit
	}
	return seg
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
		if s := int(r.segment(i)); s > 0 && s < n {
			seg = s
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

	// writeFn is the persistent poller callback (a per-call closure
	// would allocate on every flush): one GSO sendmsg when super is
	// set, else sendmmsg from off to cnt across partial sends. calls
	// counts syscalls issued, err is the one that failed.
	writeFn func(uintptr) bool
	super   bool
	off     int
	cnt     int
	calls   int
	err     syscall.Errno
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
			nn, errno := uintptr(t.cnt), syscall.Errno(0)
			if t.super {
				_, _, errno = syscall.Syscall6(syscall.SYS_SENDMSG, fd,
					uintptr(unsafe.Pointer(&t.gsoHdr)), syscall.MSG_DONTWAIT, 0, 0, 0)
			} else {
				nn, _, errno = syscall.Syscall6(sysSendmmsg, fd,
					uintptr(unsafe.Pointer(&t.msgs[t.off])), uintptr(t.cnt-t.off),
					syscall.MSG_DONTWAIT, 0, 0)
			}
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
				t.off, t.err = t.cnt, errno
			}
		}
		return true
	}
	return t
}

// writeBurst writes fbs (at most gsoMaxSegs frames) to addr through
// tc's shard in as few syscalls as the kernel allows, returning the
// syscall count: one GSO sendmsg when the burst is a valid superframe —
// every frame but the last exactly segsize bytes (the kernel segments
// at fixed offsets; only the final segment may run short), within the
// skb payload ceiling — one sendmmsg otherwise. Guarded by tc.sendMu
// (stage and batcher have the same owner).
func writeBurst(tc *liveTxChan, addr netip.AddrPort, fbs []*frameBuf) int {
	t := tc.batcher
	t.name.Family = syscall.AF_INET
	t.name.Addr = addr.Addr().As4()
	// in_port_t is big-endian in memory regardless of host order.
	pb := (*[2]byte)(unsafe.Pointer(&t.name.Port))
	port := addr.Port()
	pb[0], pb[1] = byte(port>>8), byte(port)
	segsize, total, last := fbs[0].n, 0, len(fbs)-1
	t.super = t.gso != gsoOff && last > 0
	for i, fb := range fbs {
		t.iovecs[i].Base = &fb.b[0]
		t.iovecs[i].SetLen(fb.n)
		total += fb.n
		t.super = t.super && (fb.n == segsize || i == last && fb.n < segsize)
	}
	t.super = t.super && total <= gsoMaxBytes
	if t.super {
		t.gsoHdr.Iovlen = uint64(len(fbs))
		*(*uint16)(unsafe.Pointer(&t.gsoCtrl[16])) = uint16(segsize)
		t.off, t.cnt, t.calls, t.err = 0, 1, 0, 0
		tc.shard.raw.Write(t.writeFn) //nolint:errcheck // lossy channel by design
		if t.err == 0 {
			t.gso = gsoOn
			return t.calls
		}
		// First rejection latches the sendmmsg fallback (old kernel or
		// seccomp filter); resend this burst the portable way.
		t.gso, t.super = gsoOff, false
	}
	t.off, t.cnt, t.calls = 0, len(fbs), 0
	tc.shard.raw.Write(t.writeFn) //nolint:errcheck // lossy channel by design
	return t.calls
}
