package core

import (
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// TestOperationEventsAndResumes pins, on a warmed two-kernel machine, what
// one capability operation costs the engine: the events it executes and how
// many of them switch into a proc. The events are the cost model's terms and
// the messages — they are what they were when every term was a Sleep of its
// own, and a change to them is a change to the simulated machine. The
// resumes are what owed time and waits as data save: a kernel thread charges
// the terms of a CPU-held stretch and settles once, and what it waits for in
// between — the reply leaving, the next job, the CPU — the engine evaluates
// without switching into it (kthread); a syscall whose handler cannot block
// runs in that record too (job.inline). A charge turned back into an exec, a
// settle point that became a second park, or a wait or a handler that went
// back into a thread's body moves a resume count here before it costs
// anything measurable elsewhere.
func TestOperationEventsAndResumes(t *testing.T) {
	s := MustNew(Config{Kernels: 2, UserPEs: 4})
	defer s.Close()
	pes := s.UserPEs()
	near, far := pes[1], pes[3]
	if s.KernelOfPE(pes[0]) != s.KernelOfPE(near) || s.KernelOfPE(pes[0]) == s.KernelOfPE(far) {
		t.Fatalf("PE groups are not [%d %d | … %d]", pes[0], near, far)
	}

	var root, mid cap.Selector
	var ownerID int
	ownerOp := "boot"
	owner := stepVPE(t, s, pes[0], func(v *VPE, p *sim.Proc) {
		var err error
		switch ownerOp {
		case "boot":
			ownerID = v.ID
			root, err = v.AllocMem(p, 1<<20, dtu.PermRW)
		case "derive":
			_, err = v.DeriveMem(p, root, 0, 4096, dtu.PermRW)
		case "noop":
			v.Noop(p)
		case "plant": // mid and three local children; the far VPE adds a remote one
			mid, err = v.DeriveMem(p, root, 0, 64<<10, dtu.PermRW)
			for i := uint64(0); i < 3 && err == nil; i++ {
				_, err = v.DeriveMem(p, mid, i*4096, 4096, dtu.PermR)
			}
		case "revoke":
			err = v.Revoke(p, mid)
		}
		if err != nil {
			t.Errorf("%s: %v", ownerOp, err)
		}
	})
	src := &root
	obtain := func(v *VPE, p *sim.Proc) {
		if _, err := v.ObtainFrom(p, ownerID, *src); err != nil {
			t.Error(err)
		}
	}
	obtainNear := stepVPE(t, s, near, obtain)
	obtainFar := stepVPE(t, s, far, obtain)

	// One warmed tree revoke per round: plant, hang a spanning child under
	// mid, revoke mid.
	revoke := func() func() {
		ownerOp = "plant"
		owner()
		src = &mid
		obtainFar()
		src = &root
		ownerOp = "revoke"
		return owner
	}

	// Warm every path (kernel threads spawned, tables grown), then measure.
	owner()
	ownerOp = "derive"
	owner()
	obtainNear()
	obtainFar()
	revoke()()

	for _, tc := range []struct {
		name            string
		step            func() func()
		events, resumes uint64
	}{
		// Resumes with a Sleep per term, for the record: 8, 10, 16, 29; with
		// owed time and a park per wait: 4, 6, 10, 13; with the waits as
		// data: 3, 5, 9, 11. The derive's 2 are the client's (started,
		// answered): its handler cannot block, so the kernel thread's wait
		// record runs it and the thread is not switched in at all. The
		// others still switch their threads in to run their handlers.
		{"derive", func() func() { ownerOp = "derive"; return owner }, 11, 2},
		// The bare syscall: the client's two resumes and none of the
		// thread's, which runs the handler in its record like the derive's.
		{"noop", func() func() { ownerOp = "noop"; return owner }, 8, 2},
		{"obtain-local", func() func() { return obtainNear }, 16, 5},
		{"obtain-spanning", func() func() { return obtainFar }, 25, 9},
		{"revoke-tree", revoke, 35, 11},
	} {
		step := tc.step()
		e0, r0 := s.Eng.Executed(), s.Eng.Resumes()
		step()
		events, resumes := s.Eng.Executed()-e0, s.Eng.Resumes()-r0
		if events != tc.events || resumes != tc.resumes {
			t.Errorf("%s: %d events, %d resumes; want %d, %d", tc.name, events, resumes, tc.events, tc.resumes)
		}
	}
	checkAudit(t, s)
}

// TestInlineJobs: only a derive or a noop syscall runs in its thread's wait
// record. The zero job, which the transmit proc's record holds, is a
// syscall by kind but carries no message, and must not match.
func TestInlineJobs(t *testing.T) {
	sys := func(k sysKind) job {
		return job{kind: jobSyscall, subj: &dtu.Message{Payload: &sysRequest{Kind: k}}}
	}
	for _, tc := range []struct {
		name   string
		j      job
		inline bool
	}{
		{"zero job", job{}, false},
		{"derive", sys(sysDeriveMem), true},
		{"noop", sys(sysNoop), true},
		{"obtain", sys(sysObtainFrom), false},
		{"revoke", sys(sysRevoke), false},
		{"alloc", sys(sysAllocMem), false},
		{"request", job{kind: jobRequest, subj: &ikcRequest{}}, false},
	} {
		if got := tc.j.inline(); got != tc.inline {
			t.Errorf("%s: inline %v, want %v", tc.name, got, tc.inline)
		}
	}
}

// loadedDerive builds the loaded counterpart of the idle pins above: one
// kernel, loadedClients clients, and a round in which every client issues
// loadedDerives DeriveMem calls back to back, all clients starting at one
// instant — eight syscalls outstanding against one CPU throughout, the
// regime the capstorm benchmark runs in.
const (
	loadedClients = 8
	loadedDerives = 64
)

func loadedDerive(tb testing.TB) (s *System, round func()) {
	tb.Helper()
	s = MustNew(Config{Kernels: 1, UserPEs: loadedClients})
	starts := make([]*sim.Queue[struct{}], loadedClients)
	for i, pe := range s.UserPEs() {
		start := sim.NewQueue[struct{}]()
		starts[i] = start
		if _, err := s.SpawnOn(pe, "client", func(v *VPE, p *sim.Proc) {
			root, err := v.AllocMem(p, 1<<20, dtu.PermRW)
			if err != nil {
				tb.Error(err)
				return
			}
			for {
				start.Pop(p)
				for j := 0; j < loadedDerives; j++ {
					if _, err := v.DeriveMem(p, root, 0, 4096, dtu.PermR); err != nil {
						tb.Error(err)
					}
				}
			}
		}); err != nil {
			tb.Fatal(err)
		}
	}
	s.Run() // boot, allocate, park
	return s, func() {
		for _, start := range starts {
			start.Push(struct{}{})
		}
		s.Run()
	}
}

// TestLoadedDeriveEventsAndResumes is the pin under contention. With the
// CPU always taken and a job always queued, a thread used to be switched in
// to take the job, again to take the CPU and again to send the reply — four
// resumes a syscall with the client's. Waits as data left one, to run the
// handler; a derive's handler cannot block, so its thread's wait record runs
// it, and a syscall now costs the client's resume alone, woken by the reply.
// The events are what they were.
func TestLoadedDeriveEventsAndResumes(t *testing.T) {
	s, round := loadedDerive(t)
	defer s.Close()
	round() // warm: threads spawned, tables grown
	const (
		syscalls = loadedClients * loadedDerives
		// The events of one round at 132b96f, where the same round took four
		// resumes a syscall (2055 in all), and two (1032) once the thread's
		// waits were data.
		wantEvents = 5639
		// One a syscall, the client's, and each client's wake-up from its
		// start queue.
		wantResumes = syscalls + loadedClients
	)
	e0, r0 := s.Eng.Executed(), s.Eng.Resumes()
	round()
	events, resumes := s.Eng.Executed()-e0, s.Eng.Resumes()-r0
	if events != wantEvents || resumes != wantResumes {
		t.Errorf("%d loaded derives: %d events, %d resumes; want %d, %d", syscalls, events, resumes, wantEvents, wantResumes)
	}
	checkAudit(t, s)
}

// BenchmarkLoadedDeriveSyscall is one DeriveMem of the loaded round.
func BenchmarkLoadedDeriveSyscall(b *testing.B) {
	s, round := loadedDerive(b)
	defer s.Close()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += loadedClients * loadedDerives {
		round()
	}
}
