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
// resumes are what owed time saves: a kernel thread charges the terms of a
// CPU-held stretch and settles once. A charge turned back into an exec, or
// a settle point that became a second park, moves a resume count here
// before it costs anything measurable elsewhere.
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
		// Resumes with a Sleep per term, for the record: 8, 10, 16, 29. The
		// derive's 4 are the client's two (started, answered) and the kernel
		// thread's two (job taken, settled).
		{"derive", func() func() { ownerOp = "derive"; return owner }, 11, 4},
		{"obtain-local", func() func() { return obtainNear }, 16, 6},
		{"obtain-spanning", func() func() { return obtainFar }, 25, 10},
		{"revoke-tree", revoke, 35, 13},
	} {
		step := tc.step()
		e0, r0 := s.Eng.Executed(), s.Eng.Resumes()
		step()
		events, resumes := s.Eng.Executed()-e0, s.Eng.Resumes()-r0
		if events != tc.events || resumes != tc.resumes {
			t.Errorf("%s: %d events, %d resumes; want %d, %d", tc.name, events, resumes, tc.events, tc.resumes)
		}
	}
	checkAllInvariants(t, s)
}
