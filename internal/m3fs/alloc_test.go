package m3fs

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// stepClient boots a one-kernel machine with one m3fs instance and one
// dialled client that runs op once per call of step and parks in between, so
// step is one warmed file operation pushed through a quiescent machine.
func stepClient(tb testing.TB, preload func(*FS), op func(c *Client, p *sim.Proc)) (fs *FS, step func()) {
	tb.Helper()
	s := core.MustNew(core.Config{Kernels: 1, UserPEs: 2})
	tb.Cleanup(s.Close)
	ready := sim.NewFuture[*FS](s.Eng)
	if _, err := s.Spawn("m3fs", Program(Config{}, preload, ready)); err != nil {
		tb.Fatal(err)
	}
	start := sim.NewQueue[struct{}]()
	if _, err := s.Spawn("client", func(v *core.VPE, p *sim.Proc) {
		fs = ready.Wait(p)
		c, err := Dial(p, v, "m3fs")
		if err != nil {
			tb.Error(err)
			return
		}
		for {
			start.Pop(p)
			op(c, p)
		}
	}); err != nil {
		tb.Fatal(err)
	}
	s.Run() // boot, dial, park
	return fs, func() {
		start.Push(struct{}{})
		s.Run()
	}
}

// TestDataPlaneAllocatesNothing: a warmed metadata operation — Client →
// Session.Call → DTU → ServeLoop → FS.Request → reply — allocates
// nothing. The request is the client's one record, the reply the session's,
// both travel by pointer, and an Open reuses the handle and the descriptor
// its last Close gave back.
func TestDataPlaneAllocatesNothing(t *testing.T) {
	preload := func(fs *FS) {
		fs.MustMkdirAllIn("", "inst0/dir", 0)
		fs.MustCreate("inst0/dir/f", 64<<10)
	}
	for _, tc := range []struct {
		name string
		op   func(c *Client, p *sim.Proc)
	}{
		{"stat", func(c *Client, p *sim.Proc) {
			if st, err := c.Stat(p, "dir/f"); err != nil || st.Size != 64<<10 {
				t.Errorf("stat = %+v, %v", st, err)
			}
		}},
		{"stat-missing", func(c *Client, p *sim.Proc) {
			if _, err := c.Stat(p, "dir/none"); err != core.ErrNoSuchCap {
				t.Errorf("stat of a missing file returned %v", err)
			}
		}},
		{"open-close", func(c *Client, p *sim.Proc) {
			f, err := c.Open(p, "dir/f", false, false)
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.Close(p, false); err != nil {
				t.Error(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, step := stepClient(t, preload, func(c *Client, p *sim.Proc) {
				c.Prefix = "inst0"
				tc.op(c, p)
			})
			step()
			if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
				t.Fatalf("%s allocates %v times, want 0", tc.name, allocs)
			}
		})
	}
}

// openReadClose is the shape of the benchmark's m3fs probe: open, read one
// extent, close with the extent capability revoked.
func openReadClose(tb testing.TB) func(c *Client, p *sim.Proc) {
	return func(c *Client, p *sim.Proc) {
		f, err := c.Open(p, "f", false, false)
		if err != nil {
			tb.Error(err)
			return
		}
		if _, err := f.Read(p, 4096); err != nil {
			tb.Error(err)
		}
		if err := f.Close(p, true); err != nil {
			tb.Error(err)
		}
	}
}

func preloadF(fs *FS) { fs.MustCreate("f", 64<<10) }

// TestOpenReadCloseAllocationCeiling bounds the obtain path of a file
// operation. The three data-plane calls allocate nothing
// (TestDataPlaneAllocatesNothing), neither does the kernel's query to the
// service (core.TestKernelQueriesAllocateNothing), and the range capability
// is copied into the store's slab. What is left, 2, is capability-table
// state of the revoke: the revocation's record and its list of marked keys.
// The ceiling is the measured count, with and without the race detector.
func TestOpenReadCloseAllocationCeiling(t *testing.T) {
	const ceiling = 2
	fs, step := stepClient(t, preloadF, openReadClose(t))
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(100, step); allocs > ceiling {
		t.Fatalf("open+read+close(revoke) allocates %v times, ceiling %v", allocs, ceiling)
	}
	if st := fs.Stats(); st.Opens != st.Closes || st.RangeObtains != st.Opens || st.ExtentsDerived != 1 {
		t.Fatalf("fs stats = %+v", st)
	}
}

// BenchmarkOpenReadClose is the probe's operation with its allocations
// reported (TestOpenReadCloseAllocationCeiling pins them).
func BenchmarkOpenReadClose(b *testing.B) {
	_, step := stepClient(b, preloadF, openReadClose(b))
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestRecycledHandleStartsClean: the Open that is given a closed descriptor
// again gets that descriptor's handle back, and it carries nothing over —
// no ranges, position 0, the size of the file now opened.
func TestRecycledHandleStartsClean(t *testing.T) {
	s, ready := startFS(t, 1, 2, func(fs *FS) {
		fs.MustCreate("/big", 3<<20)
		fs.MustCreate("/small", 100)
	})
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		big, err := c.Open(p, "/big", false, false)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := big.Read(p, 2<<20); err != nil {
			t.Error(err)
		}
		if n := len(big.ranges); n != 2 {
			t.Errorf("%d range capabilities after reading two extents, want 2", n)
		}
		other, err := c.Open(p, "/small", false, false)
		if err != nil {
			t.Error(err)
			return
		}
		if other == big {
			t.Error("two open files share a handle")
		}
		if err := big.Close(p, true); err != nil {
			t.Error(err)
		}
		if _, err := big.Read(p, 1); err != core.ErrBadArgs {
			t.Errorf("read on a closed handle returned %v", err)
		}
		if err := big.Close(p, true); err != core.ErrBadArgs {
			t.Errorf("second close returned %v", err)
		}
		again, err := c.Open(p, "/small", false, false)
		if err != nil {
			t.Error(err)
			return
		}
		if again != big {
			t.Error("the freed descriptor's handle was not reused")
		}
		if again.Size() != 100 || again.pos != 0 || len(again.ranges) != 0 {
			t.Errorf("recycled handle: size %d, pos %d, %d ranges; want 100, 0, 0",
				again.Size(), again.pos, len(again.ranges))
		}
		if n, err := again.Read(p, 1000); err != nil || n != 100 {
			t.Errorf("read through the recycled handle = %d, %v", n, err)
		}
		if n, err := other.Read(p, 1000); err != nil || n != 100 {
			t.Errorf("read through the handle left open = %d, %v", n, err)
		}
	})
	s.Run()
}

// TestReplyBelongsToItsSession: a reply record stays as the service wrote
// it until that session's next request, whatever other sessions do in the
// meantime — two clients of one service never see each other's answer.
func TestReplyBelongsToItsSession(t *testing.T) {
	s, ready := startFS(t, 1, 3, func(fs *FS) {
		fs.MustCreate("/a", 111)
		fs.MustCreate("/b", 222)
	})
	held := sim.NewFuture[*Reply](s.Eng)
	otherDone := sim.NewFuture[struct{}](s.Eng)
	s.Spawn("first", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		c.req = Request{Op: OpStat, Path: "/a"}
		rep, err := c.call(p)
		if err != nil || rep.Size != 111 {
			t.Errorf("stat /a = %+v, %v", rep, err)
			return
		}
		held.Complete(rep)
		otherDone.Wait(p)
		if rep.Size != 111 || rep.Err != core.OK {
			t.Errorf("the held reply changed under another session's requests: %+v", *rep)
		}
	})
	s.Spawn("second", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		first := held.Wait(p)
		for i := 0; i < 3; i++ {
			c.req = Request{Op: OpStat, Path: "/b"}
			rep, err := c.call(p)
			if err != nil || rep.Size != 222 {
				t.Errorf("stat /b = %+v, %v", rep, err)
			}
			if rep == first {
				t.Error("two sessions were answered in the same record")
			}
			if _, err := c.Stat(p, "/missing"); err != core.ErrNoSuchCap {
				t.Errorf("stat /missing returned %v", err)
			}
		}
		otherDone.Complete(struct{}{})
	})
	s.Run()
	if !otherDone.Done() {
		t.Fatal("clients did not finish")
	}
}

// TestReaddirEntriesSurviveNextRequest: the listing is the caller's; later
// requests on the same session, another Readdir included, leave it alone.
func TestReaddirEntriesSurviveNextRequest(t *testing.T) {
	s, ready := startFS(t, 1, 2, func(fs *FS) {
		fs.MustMkdirAllIn("", "/d1", 0)
		fs.MustMkdirAllIn("", "/d2", 0)
		fs.MustCreate("/d1/x", 1)
		fs.MustCreate("/d1/y", 1)
		fs.MustCreate("/d2/p", 1)
		fs.MustCreate("/d2/q", 1)
		fs.MustCreate("/d2/r", 1)
	})
	done := false
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		first, err := c.Readdir(p, "/d1")
		if err != nil {
			t.Error(err)
		}
		second, err := c.Readdir(p, "/d2")
		if err != nil {
			t.Error(err)
		}
		if _, err := c.Stat(p, "/d1/x"); err != nil {
			t.Error(err)
		}
		if len(first) != 2 || first[0] != "x" || first[1] != "y" {
			t.Errorf("first listing after later requests = %v, want [x y]", first)
		}
		if len(second) != 3 || second[0] != "p" || second[2] != "r" {
			t.Errorf("second listing after a later request = %v, want [p q r]", second)
		}
		done = true
	})
	s.Run()
	if !done {
		t.Fatal("client did not finish")
	}
}

// TestCloseClosesDescriptorWhenRevokeFails: a range capability the service
// has already revoked (the file was unlinked) makes the client's revoke
// fail; Close must still close the descriptor and drop the ranges, and
// report the revoke's error.
func TestCloseClosesDescriptorWhenRevokeFails(t *testing.T) {
	s, ready := startFS(t, 1, 2, func(fs *FS) { fs.MustCreate("/f", 2<<20) })
	var fsRef *FS
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		fsRef = ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		f, err := c.Open(p, "/f", false, false)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := f.Read(p, 2<<20); err != nil {
			t.Error(err)
		}
		if err := c.Unlink(p, "/f"); err != nil {
			t.Error(err)
		}
		if err := f.Close(p, true); err != core.ErrNoSuchCap {
			t.Errorf("close after unlink returned %v, want %v", err, core.ErrNoSuchCap)
		}
		if n := len(f.ranges); n != 0 {
			t.Errorf("%d ranges left on the closed handle", n)
		}
	})
	s.Run()
	if fsRef == nil {
		t.Fatal("service did not start")
	}
	if st := fsRef.Stats(); st.Closes != 1 {
		t.Fatalf("the service saw %d closes, want 1", st.Closes)
	}
	for _, sess := range fsRef.sessions {
		for fd, f := range sess.files {
			if f != nil {
				t.Errorf("descriptor %d still open at the service", fd+1)
			}
		}
	}
}

// TestPooledEngineRetainsNoFileState: the protocol records — the client's
// request and handles, the session's reply and descriptor table — are
// fields of their Client and FS and live and die with the machine. After
// System.Close and Pool.Put the pooled engine must not reach them. The
// witness is the node of a file left open: the image and a session's
// descriptor table point at it, and it is part of no pointer cycle (FS,
// Client and File are, and the runtime does not finalize those).
func TestPooledEngineRetainsNoFileState(t *testing.T) {
	pool := sim.NewPool()
	collected := make(chan struct{})
	eng := pool.Get()
	func() {
		s := core.MustNew(core.Config{Kernels: 1, UserPEs: 2, Engine: eng})
		ready := sim.NewFuture[*FS](s.Eng)
		preload := func(fs *FS) {
			fs.MustCreate("f", 64<<10)
			_, _, n := fs.walk("", "f")
			runtime.SetFinalizer(n.(*fileNode), func(*fileNode) { close(collected) })
		}
		if _, err := s.Spawn("m3fs", Program(Config{}, preload, ready)); err != nil {
			t.Fatal(err)
		}
		opened := false
		if _, err := s.Spawn("client", func(v *core.VPE, p *sim.Proc) {
			ready.Wait(p)
			c, err := Dial(p, v, "m3fs")
			if err != nil {
				t.Error(err)
				return
			}
			openReadClose(t)(c, p)
			f, err := c.Open(p, "f", false, false)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := f.Read(p, 4096); err != nil {
				t.Error(err)
			}
			opened = true
		}); err != nil {
			t.Fatal(err)
		}
		s.Run()
		if !opened {
			t.Fatal("the client did not get to leave a file open")
		}
		s.Close()
		pool.Put(eng)
	}()
	if pool.Get() != eng {
		t.Fatal("Put did not shelve the engine")
	}
	pool.Put(eng)
	// Collect until the finalizer has run, yielding to the runtime's
	// finalizer goroutine in between, with no timer left behind.
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if i == 1000 {
			t.Fatal("an open file of a closed machine is still reachable from its pooled engine")
		}
		runtime.Gosched()
	}
}

// TestOpenReadCloseEventsAndResumes is core.TestOperationEventsAndResumes
// for the file path: a warmed open + read + close-with-revoke executes the
// events it always did, and far fewer of them switch into a proc — the
// service loop charges its request cost and the handlers theirs and settle
// once, the kernel threads behind the obtain and the revoke do the same per
// CPU-held stretch, and for both the reply leaves, and the next request or
// job is taken, without the proc being switched in for it (the loop's and
// the threads' wait records).
func TestOpenReadCloseEventsAndResumes(t *testing.T) {
	var eng *sim.Engine
	orc := openReadClose(t)
	_, step := stepClient(t, preloadF, func(c *Client, p *sim.Proc) {
		eng = p.Engine()
		orc(c, p)
	})
	for i := 0; i < 4; i++ {
		step()
	}
	e0, r0 := eng.Executed(), eng.Resumes()
	step()
	events, resumes := eng.Executed()-e0, eng.Resumes()-r0
	// 31 resumes with a Sleep per term, 19 with owed time and a park per wait.
	const wantEvents, wantResumes = 45, 14
	if events != wantEvents || resumes != wantResumes {
		t.Fatalf("open+read+close: %d events, %d resumes; want %d, %d", events, resumes, wantEvents, wantResumes)
	}
}
