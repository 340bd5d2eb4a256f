package clic

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ether"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Region is a receiver-side user-memory window that remote nodes can
// write into asynchronously: "to receive an asynchronous message (a
// remote write), CLIC_MODULE directly moves the packet from system memory
// to the corresponding user memory location without having to wait for
// any receive call" (§3.1).
type Region struct {
	ep       *Endpoint
	port     uint16
	buf      []byte
	sig      *sim.Signal
	writes   int
	consumed int
}

// OpenRegion registers a remote-write window of size bytes on port.
func (ep *Endpoint) OpenRegion(port uint16, size int) *Region {
	if _, exists := ep.regions[port]; exists {
		panic(fmt.Sprintf("clic%d: region already open on port %d", ep.Node, port))
	}
	r := &Region{
		ep:   ep,
		port: port,
		buf:  make([]byte, size),
		sig:  sim.NewSignal(fmt.Sprintf("clic%d:region%d", ep.Node, port)),
	}
	ep.regions[port] = r
	return r
}

// Bytes exposes the region's current contents. The application reads it
// at any time without a receive call — that is the point of remote write.
func (r *Region) Bytes() []byte { return r.buf }

// Writes returns the number of remote writes completed so far.
func (r *Region) Writes() int { return r.writes }

// Wait blocks (as a system call) until at least one remote write beyond
// those already consumed by previous Waits has landed.
func (r *Region) Wait(p *sim.Proc) {
	r.ep.K.SyscallEnter(p)
	for r.writes <= r.consumed {
		r.sig.Wait(p)
	}
	r.consumed++
	r.ep.K.SyscallExit(p)
}

// remoteWritePrefix is the offset prelude a remote-write message carries.
const remoteWritePrefix = 8

// RemoteWrite reliably writes data into dst's region on port at the given
// byte offset, without the receiver issuing any receive call. It returns
// ErrChannelFailed if the channel to dst is dead.
func (ep *Endpoint) RemoteWrite(p *sim.Proc, dst NodeID, port uint16, offset int, data []byte) error {
	payload := make([]byte, remoteWritePrefix, remoteWritePrefix+len(data))
	binary.BigEndian.PutUint64(payload, uint64(offset))
	payload = append(payload, data...)

	if dst == ep.Node {
		ep.K.SyscallEnter(p)
		ep.K.Host.CPUWork(p, ep.M.CLIC.ModuleSend+ep.M.CLIC.IntraNodeLatency, sim.PriKernel)
		msg := &message{Src: ep.Node, Port: port, Type: proto.TypeRemoteWrite, Data: payload}
		ep.deliverRemoteWrite(p, sim.PriKernel, msg, nil)
		ep.K.SyscallExit(p)
		return nil
	}
	ep.K.SyscallEnter(p)
	_, err := ep.sendMessage(p, dst, port, proto.TypeRemoteWrite, 0, payload)
	ep.K.SyscallExit(p)
	return err
}

// deliverRemoteWrite lands a completed remote-write message in its region.
func (ep *Endpoint) deliverRemoteWrite(p *sim.Proc, pri int, msg *message, f *ether.Frame) {
	if len(msg.Data) < remoteWritePrefix {
		return // malformed: drop
	}
	r, ok := ep.regions[msg.Port]
	if !ok {
		return // no region open: drop (asynchronous writes have no queue)
	}
	offset := int(binary.BigEndian.Uint64(msg.Data[:remoteWritePrefix]))
	data := msg.Data[remoteWritePrefix:]
	if offset < 0 || offset+len(data) > len(r.buf) {
		return // out of the window: drop
	}
	// System memory → user memory, done by CLIC_MODULE with no receive
	// call pending (Fig. 3 step 7).
	ep.K.Host.Memcpy(p, len(data), pri)
	copy(r.buf[offset:], data)
	r.writes++
	if r.sig.Waiting() > 0 {
		ep.K.Host.CPUWork(p, ep.M.Host.SchedulerWake, pri)
		r.sig.Broadcast()
	}
}
