package main

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"time"
)

// The host this benchmark runs on is a small shared virtual machine whose
// speed moves by tens of per cent over minutes and by half over hours,
// whatever the program does (README.md, "Host-speed reference", has the
// measurements). A time measured there says as much about the neighbours as
// about the code. So every timed round is bracketed by samples of a
// reference workload that contains no code of this repository, and each
// time is reported in units of the reference measured beside it.
//
// The reference for a workload is a depth-1 echo of the workload's message
// over two bare UDP sockets on 127.0.0.1, the message cut into as many
// datagrams as CLIC cuts it into frames: the same kernel UDP path, the same
// goroutine wake-ups and the same bytes copied, with nothing of CLIC on top.
// It is what the paper does when it sets CLIC beside TCP/IP on the same
// hardware.

// zeroByteRef is the reference of the workloads that move no payload.
var zeroByteRef = refShape{frags: 1, fragBytes: 0, echoes: 1000, nominalNs: 8000}

// refShape is the reference echo of one workload.
type refShape struct {
	frags     int // datagrams per message, each way
	fragBytes int // payload of each datagram
	echoes    int // echoes in one sample, sized to take about 10 ms
	// nominalNs is the time of one echo on this benchmark's host in its
	// usual state. It only fixes the scale: a reference that reads nominalNs
	// leaves a measured time as it is.
	nominalNs float64
}

// hostRef runs the reference echo. The server end answers every datagram
// with the same bytes from its own goroutine until the sockets close.
type hostRef struct {
	shape          refShape
	client, server *net.UDPConn
	dst            netip.AddrPort
	buf            []byte
	serverDone     chan struct{}
	prev           float64 // the sample that closed the last stretch
}

func newHostRef(shape refShape) (*hostRef, error) {
	listen := func() (*net.UDPConn, error) {
		return net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	}
	client, err := listen()
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	server, err := listen()
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("host reference: %w", err)
	}
	h := &hostRef{shape: shape, client: client, server: server,
		dst: server.LocalAddr().(*net.UDPAddr).AddrPort(),
		buf: make([]byte, max(shape.fragBytes, 1)), serverDone: make(chan struct{})}
	go func() {
		defer close(h.serverDone)
		buf := make([]byte, len(h.buf))
		for {
			n, from, err := server.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			if _, err := server.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	if h.prev, err = h.sample(); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// between is the host's slowness over the stretch since the previous call
// (or since newHostRef): the mean of the sample that closed the last stretch
// and a fresh one, which closes this one.
//
// The caller has stopped what it measured first (rig.quiesce for a live
// rig), and the stretch's garbage is collected here, before the sample: the
// sample must read the host, not what the code under test left behind, or a
// regression there would be divided out of its own metric.
func (h *hostRef) between() (float64, error) {
	runtime.GC()
	now, err := h.sample()
	slow := (h.prev + now) / 2
	h.prev = now
	return slow, err
}

// sample times shape.echoes echoes and returns the host's slowness: the
// time of one echo over its nominal time, above 1 when the host is slow.
func (h *hostRef) sample() (float64, error) {
	// One message in flight is at most 45 datagrams, well inside the
	// default socket buffer, so nothing is dropped; the deadline is for the
	// case that something is, so that the run fails and does not hang.
	if err := h.client.SetReadDeadline(time.Now().Add(stallDeadline)); err != nil {
		return 0, fmt.Errorf("host reference: %w", err)
	}
	payload := h.buf[:h.shape.fragBytes]
	start := time.Now()
	for i := 0; i < h.shape.echoes; i++ {
		for j := 0; j < h.shape.frags; j++ {
			if _, err := h.client.WriteToUDPAddrPort(payload, h.dst); err != nil {
				return 0, fmt.Errorf("host reference: %w", err)
			}
		}
		for j := 0; j < h.shape.frags; j++ {
			if _, _, err := h.client.ReadFromUDPAddrPort(h.buf); err != nil {
				return 0, fmt.Errorf("host reference: %w", err)
			}
		}
	}
	perEcho := float64(time.Since(start).Nanoseconds()) / float64(h.shape.echoes)
	return perEcho / h.shape.nominalNs, nil
}

// close stops the server goroutine and waits for it.
func (h *hostRef) close() {
	h.client.Close()
	h.server.Close()
	<-h.serverDone
}
