package sim

import "testing"

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		wake = p.Now()
	})
	e.Run()
	if wake != 100 {
		t.Fatalf("woke at %d, want 100", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Spawn("a", func(p *Proc) {
		got = append(got, "a1")
		p.Sleep(10)
		got = append(got, "a2")
		p.Sleep(20)
		got = append(got, "a3")
	})
	e.Spawn("b", func(p *Proc) {
		got = append(got, "b1")
		p.Sleep(15)
		got = append(got, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "a2", "b2", "a3"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestProcParkWake(t *testing.T) {
	e := NewEngine()
	var done Time
	p := e.Spawn("parker", func(p *Proc) {
		p.Park()
		done = p.Now()
	})
	e.Schedule(50, func() { p.Wake() })
	e.Run()
	if done != 50 {
		t.Fatalf("resumed at %d, want 50", done)
	}
}

func TestProcYieldRunsAfterQueuedEvents(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Spawn("y", func(p *Proc) {
		e.Schedule(0, func() { got = append(got, "event") })
		p.Yield()
		got = append(got, "proc")
	})
	e.Run()
	if len(got) != 2 || got[0] != "event" || got[1] != "proc" {
		t.Fatalf("got %v, want [event proc]", got)
	}
}

func TestProcKillUnwindsParked(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) {
		p.Park() // never woken
		t.Error("parked proc resumed unexpectedly")
	})
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs = %d, want 1 before Kill", e.LiveProcs())
	}
	e.Kill()
	// The body has unwound when Kill returns, so the counter is exact
	// afterwards and further runs are no-ops.
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0 after Kill", e.LiveProcs())
	}
	e.Run()
}

func TestProcDeterministicWithManyProcs(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var got []int
		for i := 0; i < 50; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				p.Sleep(Duration(i % 7))
				got = append(got, i)
				p.Sleep(Duration(13 - i%13))
				got = append(got, 100+i)
			})
		}
		e.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != 100 {
		t.Fatalf("len = %d, want 100", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at index %d", i)
		}
	}
}
