package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	var woke Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	end := e.Run()
	if woke != 5*Microsecond {
		t.Errorf("woke at %d, want %d", woke, 5*Microsecond)
	}
	if end != 5*Microsecond {
		t.Errorf("engine ended at %d, want %d", end, 5*Microsecond)
	}
}

func TestCallbackOrderingSameTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, "cb", func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among same-time events)", i, v, i)
		}
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(50, "cb", func() { fired = true })
	e.At(10, "cancel", func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, "cb", func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("after RunUntil(25): %d events fired, want 2", len(fired))
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run: %d events fired, want 4", len(fired))
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int]("q")
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(10)
		q.Put(1)
		q.Put(2)
		p.Sleep(10)
		q.Put(3)
	})
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("got %v, want [1 2 3]", got)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("bus", 1)
	var spans [][2]Time
	for i := 0; i < 4; i++ {
		e.Go("user", func(p *Proc) {
			r.Acquire(p)
			start := p.Now()
			p.Sleep(10)
			r.Release(e)
			spans = append(spans, [2]Time{start, p.Now()})
		})
	}
	e.Run()
	if len(spans) != 4 {
		t.Fatalf("%d holders finished, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Errorf("holder %d started at %d before previous released at %d",
				i, spans[i][0], spans[i-1][1])
		}
	}
	if got := r.BusyTime(); got != 40 {
		t.Errorf("busy time %d, want 40", got)
	}
}

func TestResourcePriorityOrdering(t *testing.T) {
	e := NewEngine(1)
	r := NewResource("cpu", 1)
	var order []string
	// Holder keeps the resource until t=100; three waiters of different
	// priorities queue at t=10..30; they must be served IRQ, kernel, normal
	// regardless of arrival order.
	e.Go("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release(e)
	})
	wait := func(name string, at Time, pri int) {
		e.GoAt(at, name, func(p *Proc) {
			r.AcquirePri(p, pri)
			order = append(order, name)
			p.Sleep(1)
			r.Release(e)
		})
	}
	wait("normal", 10, PriNormal)
	wait("kernel", 20, PriKernel)
	wait("irq", 30, PriIRQ)
	e.Run()
	want := []string{"irq", "kernel", "normal"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestSignalNotifyAndBroadcast(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal("s")
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.At(10, "notify", func() { s.Notify() })
	e.At(20, "broadcast", func() { s.Broadcast() })
	e.Run()
	if woken != 3 {
		t.Errorf("woken = %d, want 3", woken)
	}
	if s.Waiting() != 0 {
		t.Errorf("still %d waiters", s.Waiting())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(42)
		r := NewResource("bus", 1)
		q := NewQueue[Time]("q")
		var out []Time
		for i := 0; i < 5; i++ {
			e.Go("worker", func(p *Proc) {
				d := Time(e.Rand().Intn(100) + 1)
				p.Sleep(d)
				r.Use(p, d)
				q.Put(p.Now())
			})
		}
		e.Go("collector", func(p *Proc) {
			for i := 0; i < 5; i++ {
				out = append(out, q.Get(p))
			}
		})
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("runs produced %d and %d results, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestHeapOrderingProperty(t *testing.T) {
	// Property: events fire in nondecreasing time order regardless of the
	// order they were scheduled in.
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(1)
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			e.At(at, "cb", func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTallyStats(t *testing.T) {
	var ta Tally
	for _, v := range []float64{1, 2, 3, 4} {
		ta.Add(v)
	}
	if ta.N() != 4 || ta.Mean() != 2.5 || ta.Min() != 1 || ta.Max() != 4 {
		t.Errorf("tally %v wrong", ta.String())
	}
}

func TestYieldRunsAfterSameTimeEvents(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	e.Run()
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := Time(1); i <= 100; i++ {
		e.At(i, "tick", func() {
			count++
			if count == 10 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10 (Stop should halt the loop)", count)
	}
}

// goldenSchedule runs a seeded random mix of every blocking primitive
// and returns one line per dispatched event ("<time> <label>") followed
// by the engine's final state. Every random draw comes from the engine's
// own source inside simulation context, so the lines depend on nothing
// but the engine's event order.
func goldenSchedule(seed int64) []string {
	e := NewEngine(seed)
	var lines []string
	e.Trace = func(t Time, what string) { lines = append(lines, fmt.Sprintf("%d %s", t, what)) }
	rng := e.Rand()
	cpu, bus := NewResource("cpu", 1), NewResource("bus", 2)
	q1, q2 := NewQueue[int]("q1"), NewQueue[int]("q2")
	sig, sem := NewSignal("sig"), NewSemaphore("sem", 2)
	bar, wg := NewBarrier("bar", 3), NewWaitGroup("wg")

	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("w%d", i)
		wg.Add(1)
		e.GoAt(Time(rng.Intn(40)), name, func(p *Proc) {
			for r := 0; r < 40; r++ {
				switch rng.Intn(9) {
				case 0:
					p.Sleep(Time(rng.Intn(20))) // 0 returns without parking
				case 1:
					p.Yield()
				case 2:
					cpu.UsePri(p, Time(1+rng.Intn(10)), rng.Intn(3))
				case 3:
					bus.Use(p, Time(1+rng.Intn(5)))
				case 4:
					q1.Put(r)
				case 5:
					sem.Acquire(p)
					p.Sleep(Time(rng.Intn(4)))
					sem.Release()
				case 6:
					if rng.Intn(4) == 0 {
						sig.Broadcast()
					} else {
						sig.Notify()
					}
				case 7:
					e.After(Time(rng.Intn(30)), "cb:"+name, func() { q2.Put(r) })
				case 8:
					ev := e.After(Time(2+rng.Intn(30)), "never:"+name, func() { q2.Put(-1) })
					e.After(Time(rng.Intn(2)), "cancel:"+name, ev.Cancel)
				}
			}
			wg.Done()
		})
	}
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("b%d", i), func(p *Proc) {
			for r := 0; r < 10; r++ {
				p.Sleep(Time(1 + rng.Intn(25)))
				bar.Wait(p)
			}
		})
	}
	// The consumers and the signal waiters never finish: they are the
	// procs Run abandons.
	e.Go("c1", func(p *Proc) {
		for {
			q1.Get(p)
			cpu.UsePri(p, 2, PriIRQ)
		}
	})
	e.Go("c2", func(p *Proc) {
		for {
			if q2.Get(p) < 0 {
				panic("cancelled event fired")
			}
			p.Yield()
		}
	})
	for i := 0; i < 2; i++ {
		e.Go(fmt.Sprintf("s%d", i), func(p *Proc) {
			for {
				sig.Wait(p)
				bus.Use(p, 3)
			}
		})
	}
	e.Go("closer", func(p *Proc) {
		wg.Wait(p)
		e.Go("late", func(p *Proc) { p.Sleep(7) })
	})

	// Drive in slices so procs are regularly mid-Sleep across a limit.
	for limit := Time(13); e.Pending() > 0; limit += 13 {
		e.RunUntil(limit)
	}
	return append(lines, fmt.Sprintf("end now=%d live=%d q1=%d q2=%d cpu=%d bus=%d",
		e.Now(), e.LiveProcs(), q1.Len(), q2.Len(), cpu.BusyTime(), bus.BusyTime()))
}

// TestGoldenSchedule pins the event order and the trace labels to
// testdata/golden_schedule.txt, which was recorded from the engine that
// ran the loop on its own goroutine and resumed each proc over a channel
// pair (commit 25d9383), before the baton-passing loop replaced it.
func TestGoldenSchedule(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_schedule.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := goldenSchedule(7)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q, want %q", i+1, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d trace lines, want %d", len(got), len(want))
	}
}

func TestRunUntilSlicesFromDifferentGoroutines(t *testing.T) {
	// The sleeper is mid-Sleep at every limit; each slice after the first
	// is driven from a fresh goroutine, as clicsim -health-scan-us does
	// when its drive loop moves under a profiler label.
	e := NewEngine(1)
	var woke []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100)
			woke = append(woke, p.Now())
		}
	})
	if now := e.RunUntil(150); now != 150 || len(woke) != 1 {
		t.Fatalf("slice 1: now %d, woke %v; want 150, [100]", now, woke)
	}
	done := make(chan Time)
	go func() { done <- e.RunUntil(250) }()
	if now := <-done; now != 250 || len(woke) != 2 || e.Pending() != 1 {
		t.Fatalf("slice 2: now %d, woke %v, pending %d; want 250, [100 200], 1", now, woke, e.Pending())
	}
	go func() { done <- e.Run() }()
	if now := <-done; now != 300 || len(woke) != 3 || e.LiveProcs() != 0 {
		t.Fatalf("slice 3: now %d, woke %v, live %d; want 300, 3 wakes, 0", now, woke, e.LiveProcs())
	}
}

func TestStopFromProcAndCallback(t *testing.T) {
	for _, from := range []string{"proc", "callback"} {
		e := NewEngine(1)
		ticks := 0
		e.Go("ticker", func(p *Proc) {
			for {
				p.Sleep(10)
				ticks++
				if from == "proc" && ticks == 5 {
					e.Stop()
					p.Sleep(10) // parks: the baton must go home, not on
				}
			}
		})
		if from == "callback" {
			e.At(55, "stop", e.Stop)
		}
		e.Go("bystander", func(p *Proc) { p.Sleep(1000) })
		end := e.Run()
		want := map[string]Time{"proc": 50, "callback": 55}[from]
		if end != want || ticks != 5 || !e.Stopped() {
			t.Errorf("stop from %s: ended at %d after %d ticks, want %d after 5", from, end, ticks, want)
		}
		if e.Pending() != 2 || e.LiveProcs() != 2 {
			t.Errorf("stop from %s: pending %d live %d, want both sleepers still queued", from, e.Pending(), e.LiveProcs())
		}
		if again := e.Run(); again != end || ticks != 5 {
			t.Errorf("stop from %s: a stopped engine ran on to %d", from, again)
		}
	}
}

func TestProcExitPassesBatonOn(t *testing.T) {
	// "first" exits at t=10 holding the baton while a callback and two
	// other procs are still due: its goroutine must fire the callback and
	// hand over before it dies.
	e := NewEngine(1)
	q := NewQueue[string]("q")
	var order []string
	e.Go("first", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "first-exit")
	})
	e.Go("getter", func(p *Proc) { order = append(order, q.Get(p)) })
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "sleeper")
	})
	e.At(15, "cb", func() { q.Put("got") })
	end := e.Run()
	if got := strings.Join(order, " "); got != "first-exit got sleeper" || end != 20 || e.LiveProcs() != 0 {
		t.Errorf("order %q end %d live %d, want \"first-exit got sleeper\" 20 0", got, end, e.LiveProcs())
	}
}

func TestGoFromProcAndCallback(t *testing.T) {
	e := NewEngine(1)
	var order []string
	child := func(name string) func(*Proc) {
		return func(p *Proc) {
			order = append(order, fmt.Sprintf("%s@%d", name, p.Now()))
			p.Sleep(5)
			order = append(order, fmt.Sprintf("%s-done@%d", name, p.Now()))
		}
	}
	e.Go("parent", func(p *Proc) {
		p.Sleep(10)
		e.Go("from-proc", child("from-proc"))
		order = append(order, "parent-continues") // the child starts only once parent parks
		p.Sleep(1)
	})
	e.At(12, "spawn", func() { e.Go("from-cb", child("from-cb")) })
	e.Run()
	want := "parent-continues from-proc@10 from-cb@12 from-proc-done@15 from-cb-done@17"
	if got := strings.Join(order, " "); got != want || e.LiveProcs() != 0 {
		t.Errorf("order %q live %d, want %q 0", got, e.LiveProcs(), want)
	}
}

func TestRunReturnsWithProcsBlocked(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int]("q")
	got := 0
	e.Go("getter", func(p *Proc) { got = q.Get(p) })
	e.Go("finisher", func(p *Proc) { p.Sleep(3) })
	if end := e.Run(); end != 3 || e.LiveProcs() != 1 || e.Pending() != 0 {
		t.Fatalf("end %d live %d pending %d, want 3 1 0 (getter abandoned, queue drained)", end, e.LiveProcs(), e.Pending())
	}
	// Between runs the caller is simulation context: a Put revives the
	// abandoned getter in the next run.
	q.Put(42)
	if e.Pending() != 1 {
		t.Fatalf("pending %d after Put, want the getter's wake", e.Pending())
	}
	e.Run()
	if got != 42 || e.LiveProcs() != 0 {
		t.Errorf("got %d live %d, want 42 0", got, e.LiveProcs())
	}
}

func TestSecondWakePanicsWithBothLabels(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal("s")
	victim := e.Go("victim", func(p *Proc) { s.Wait(p) })
	e.Run() // victim is parked on s, nothing queued
	s.Notify()
	defer func() {
		msg := fmt.Sprint(recover())
		for _, part := range []string{"again:x", "victim", "notify:s"} {
			if !strings.Contains(msg, part) {
				t.Errorf("panic %q does not name %q", msg, part)
			}
		}
	}()
	victim.wake("again:", "x")
	t.Error("second wake of a proc with a queued wake did not panic")
}

func TestZeroAllocWake(t *testing.T) {
	// AllocsPerRun warms up with one call, which grows the event heap and
	// the rings to their steady size.
	t.Run("sleep", func(t *testing.T) {
		e := NewEngine(1)
		e.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(1)
			}
		})
		if n := testing.AllocsPerRun(50, func() { e.RunUntil(e.Now() + 100) }); n != 0 {
			t.Errorf("%v allocs per 100 sleeps, want 0", n)
		}
	})
	t.Run("queue-ping-pong", func(t *testing.T) {
		e := NewEngine(1)
		q1, q2 := NewQueue[int]("q1"), NewQueue[int]("q2")
		e.Go("a", func(p *Proc) {
			for i := 0; ; i++ {
				q1.Put(i)
				q2.Get(p)
				p.Sleep(1)
			}
		})
		e.Go("b", func(p *Proc) {
			for {
				q2.Put(q1.Get(p))
			}
		})
		if n := testing.AllocsPerRun(50, func() { e.RunUntil(e.Now() + 100) }); n != 0 {
			t.Errorf("%v allocs per 100 round trips, want 0", n)
		}
	})
}

func TestFifoOrderAcrossWrapAndGrowth(t *testing.T) {
	// Interleaved pushes and pops keep head off zero, so every growth
	// copies a wrapped ring; order must survive and vacated slots be zero.
	var f fifo[*int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 1+round%7; i++ {
			v := next
			f.push(&v)
			next++
		}
		for i := 0; i < 1+round%5 && f.n > 0; i++ {
			if got := *f.pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for ; f.n > 0; want++ {
		if got := *f.pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
	for i, p := range f.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a pointer after the fifo drained", i)
		}
	}
}
