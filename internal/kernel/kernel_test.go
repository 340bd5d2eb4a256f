package kernel_test

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/sim"
)

func fixture() (*sim.Engine, *kernel.Kernel) {
	eng := sim.NewEngine(1)
	params := model.Default()
	h := hw.NewHost(eng, "n0", &params)
	return eng, kernel.New(h)
}

func TestSyscallCostsAndCount(t *testing.T) {
	eng, k := fixture()
	var enterEnd, exitEnd sim.Time
	eng.Go("app", func(p *sim.Proc) {
		k.SyscallEnter(p)
		enterEnd = p.Now()
		k.SyscallExit(p)
		exitEnd = p.Now()
	})
	eng.Run()
	// Paper: enter+leave ≈ 0.65 µs.
	if total := exitEnd; total < 600 || total > 700 {
		t.Errorf("syscall round trip %d ns, want ~650", total)
	}
	if enterEnd == 0 || k.Syscalls.Value() != 1 {
		t.Errorf("syscall accounting wrong: %d", k.Syscalls.Value())
	}
}

func TestIRQDispatchRunsHandler(t *testing.T) {
	eng, k := fixture()
	var ran []sim.Time
	irq := k.RegisterIRQ("eth0", func(p *sim.Proc) {
		ran = append(ran, p.Now())
	})
	eng.At(10*sim.Microsecond, "raise", func() { irq.Raise() })
	eng.At(50*sim.Microsecond, "raise", func() { irq.Raise() })
	eng.Run()
	if len(ran) != 2 {
		t.Fatalf("handler ran %d times, want 2", len(ran))
	}
	// Dispatch adds the InterruptDispatch cost (8 µs default).
	if ran[0] < 18*sim.Microsecond-100 {
		t.Errorf("first handler at %d, want >= raise + dispatch", ran[0])
	}
	if k.Interrupts.Value() != 2 {
		t.Errorf("interrupt count %d", k.Interrupts.Value())
	}
}

func TestBottomHalfRunsAfterISR(t *testing.T) {
	eng, k := fixture()
	var order []string
	irq := k.RegisterIRQ("eth0", func(p *sim.Proc) {
		order = append(order, "isr")
		k.BottomHalf(func(bp *sim.Proc) {
			order = append(order, "bh")
		})
	})
	eng.At(0, "raise", func() { irq.Raise() })
	eng.Run()
	if len(order) != 2 || order[0] != "isr" || order[1] != "bh" {
		t.Fatalf("order %v, want [isr bh]", order)
	}
	if k.BottomHalfs.Value() != 1 {
		t.Errorf("bottom-half count %d", k.BottomHalfs.Value())
	}
}

func TestIRQPreemptsKernelWork(t *testing.T) {
	// A long run of kernel-priority chunks must yield the CPU to an ISR
	// between chunks.
	eng, k := fixture()
	var isrAt sim.Time
	irq := k.RegisterIRQ("eth0", func(p *sim.Proc) { isrAt = p.Now() })
	eng.Go("kernelwork", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			k.Host.CPUWork(p, 10*sim.Microsecond, sim.PriKernel)
		}
	})
	eng.At(105*sim.Microsecond, "raise", func() { irq.Raise() })
	eng.Run()
	if isrAt == 0 {
		t.Fatal("ISR never ran")
	}
	if isrAt > 200*sim.Microsecond {
		t.Errorf("ISR delayed until %d ns behind kernel work", isrAt)
	}
}

func TestWakeChargesSchedulerAndNotifies(t *testing.T) {
	eng, k := fixture()
	sig := sim.NewSignal("s")
	var wokeAt sim.Time
	eng.Go("sleeper", func(p *sim.Proc) {
		sig.Wait(p)
		wokeAt = p.Now()
	})
	eng.GoAt(10*sim.Microsecond, "waker", func(p *sim.Proc) {
		k.Wake(p, sig)
	})
	eng.Run()
	if wokeAt == 0 {
		t.Fatal("sleeper never woke")
	}
	// Wake pays SchedulerWake (2 µs) before the notify lands.
	if wokeAt < 12*sim.Microsecond {
		t.Errorf("woke at %d, want >= 12 µs (wake cost charged)", wokeAt)
	}
	if k.Wakeups.Value() != 1 {
		t.Errorf("wakeup count %d", k.Wakeups.Value())
	}
}

func TestSKBuffString(t *testing.T) {
	b := &kernel.SKBuff{Data: make([]byte, 100), UserPages: true, Headroom: 26}
	if s := b.String(); s == "" {
		t.Error("empty skb description")
	}
}
