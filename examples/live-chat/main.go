// Live backend demo: two CLIC nodes exchange a scripted conversation over
// real UDP sockets on loopback with 15% injected datagram loss. The same
// sliding-window core as the simulator keeps the transcript complete
// and ordered; the stats at the end show how hard the protocol had to
// work.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/health"
	"repro/internal/live"
)

const chatPort = 40

func main() {
	cfg := live.DefaultConfig()
	cfg.LossRate = 0.15
	cfg.Seed = 42
	cfg.RetransmitTimeout = 10 * time.Millisecond

	alice, err := live.NewNode(0, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer alice.Close()
	bob, err := live.NewNode(1, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer bob.Close()
	live.Connect(alice, bob)

	script := []string{
		"hey — did the 0-copy patch land?",
		"it did. jumbo frames next?",
		"yes; the switch supports 9000 already",
		"then we should clear 600 Mb/s",
		"the paper said the same. ship it.",
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range script {
			msg, err := bob.Recv(chatPort)
			if err != nil {
				log.Printf("bob: %v", err)
				return
			}
			fmt.Printf("bob <- %q\n", msg.Data)
			reply := fmt.Sprintf("ack %d", i)
			if err := bob.Send(0, chatPort, []byte(reply)); err != nil {
				log.Printf("bob: %v", err)
				return
			}
		}
	}()

	for _, line := range script {
		if err := alice.Send(1, chatPort, []byte(line)); err != nil {
			log.Fatal(err)
		}
		msg, err := alice.Recv(chatPort)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("alice <- %q\n", msg.Data)
	}
	<-done

	ca, cb := alice.HealthSnapshot().Counters, bob.HealthSnapshot().Counters
	fmt.Printf("\nalice: %d datagrams sent, %d dropped by injection, %d retransmitted\n",
		ca[health.CounterTxFrames], ca["loss_injected"], ca["retransmits"])
	fmt.Printf("bob:   %d datagrams sent, %d dropped by injection, %d retransmitted\n",
		cb[health.CounterTxFrames], cb["loss_injected"], cb["retransmits"])
	fmt.Println("transcript complete and in order despite the loss.")
}
