package m3fs

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// startFS boots a system with one m3fs instance (optionally preloaded) and
// returns the system plus a future resolving to the FS.
func startFS(t *testing.T, kernels, userPEs int, preload func(*FS)) (*core.System, *sim.Future[*FS]) {
	t.Helper()
	s := core.MustNew(core.Config{Kernels: kernels, UserPEs: userPEs})
	t.Cleanup(s.Close)
	ready := sim.NewFuture[*FS](s.Eng)
	if _, err := s.SpawnOn(s.UserPEs()[0], "m3fs", Program(Config{}, preload, ready)); err != nil {
		t.Fatal(err)
	}
	return s, ready
}

func TestOpenReadClose(t *testing.T) {
	s, ready := startFS(t, 1, 2, func(fs *FS) {
		fs.MustCreate("/data.bin", 3<<20) // 3 MiB -> 3 extents
	})
	var fsRef *FS
	var capOps uint64
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		fsRef = ready.Wait(p)
		c, err := Dial(p, v, "m3fs")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		f, err := c.Open(p, "/data.bin", false, false)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if f.Size() != 3<<20 {
			t.Errorf("size = %d", f.Size())
		}
		n, err := f.Read(p, 3<<20)
		if err != nil || n != 3<<20 {
			t.Errorf("read = %d, %v", n, err)
		}
		if err := f.Close(p, true); err != nil {
			t.Errorf("close: %v", err)
		}
		capOps = v.CapOps()
	})
	s.Run()
	if fsRef == nil {
		t.Fatal("service did not start")
	}
	st := fsRef.Stats()
	if st.Opens != 1 || st.RangeObtains != 3 || st.Closes != 1 {
		t.Fatalf("fs stats = %+v", st)
	}
	// Client cap ops: 1 session + 3 obtains + 3 revokes.
	if capOps != 7 {
		t.Fatalf("client cap ops = %d, want 7", capOps)
	}
}

func TestWriteExtendsFile(t *testing.T) {
	s, ready := startFS(t, 1, 2, nil)
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		f, err := c.Open(p, "/new.log", true, false)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := f.Write(p, 2<<20); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		st, err := c.Stat(p, "/new.log")
		if err != nil || st.Size != 2<<20 {
			t.Errorf("stat after write: %+v, %v", st, err)
		}
	})
	s.Run()
}

// TestGrowingPreloadedFileKeepsNeighbour: preloaded files share one arena of
// extents, each list capped at its own length, so an OpExtend of the first
// file copies its list out instead of writing over the second file's.
func TestGrowingPreloadedFileKeepsNeighbour(t *testing.T) {
	s, ready := startFS(t, 1, 2, func(fs *FS) {
		fs.Reserve(2, 2)
		fs.MustMkdirAllIn("", "inst0", 2)
		fs.MustCreateIn("inst0", "a", 100)
		fs.MustCreateIn("inst0", "b", 100)
	})
	var fs *FS
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		fs = ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		c.Prefix = "inst0"
		f, err := c.Open(p, "a", false, false)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.Write(p, 3<<20); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	s.Run()
	inst0 := fs.root.lookup("inst0").(*dirNode)
	a, b := inst0.lookup("a").(*fileNode), inst0.lookup("b").(*fileNode)
	if want := []uint64{0, 2 << 20, 3 << 20}; !slices.Equal(a.extents, want) {
		t.Errorf("grown file's extents = %v, want %v", a.extents, want)
	}
	if want := []uint64{1 << 20}; !slices.Equal(b.extents, want) {
		t.Errorf("neighbour's extents = %v after the first file grew, want %v", b.extents, want)
	}
}

func TestMetadataOps(t *testing.T) {
	s, ready := startFS(t, 1, 2, func(fs *FS) {
		fs.MustMkdirAllIn("", "/a/b", 0)
		fs.MustCreate("/a/b/x", 100)
		fs.MustCreate("/a/b/y", 200)
	})
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		entries, err := c.Readdir(p, "/a/b")
		if err != nil || len(entries) != 2 || entries[0] != "x" || entries[1] != "y" {
			t.Errorf("readdir = %v, %v", entries, err)
		}
		st, err := c.Stat(p, "/a/b")
		if err != nil || !st.IsDir {
			t.Errorf("stat dir = %+v, %v", st, err)
		}
		if _, err := c.Stat(p, "/a/b/zzz"); err == nil {
			t.Error("stat of missing file succeeded")
		}
		if err := c.Mkdir(p, "/a/c"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		if err := c.Mkdir(p, "/a/c"); err == nil {
			t.Error("duplicate mkdir succeeded")
		}
		if err := c.Unlink(p, "/a/b/x"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if _, err := c.Stat(p, "/a/b/x"); err == nil {
			t.Error("stat of unlinked file succeeded")
		}
	})
	s.Run()
}

// TestUnlinkRevokesClientCaps: when a file is removed, the service revokes
// its extent capabilities, recursively destroying the clients' range caps —
// the consistency discipline that motivates a fast revoke (paper §3).
func TestUnlinkRevokesClientCaps(t *testing.T) {
	s, ready := startFS(t, 2, 3, func(fs *FS) {
		fs.MustCreate("/shared", 1<<20)
	})
	holderDone := sim.NewFuture[*core.VPE](s.Eng)
	unlinked := sim.NewFuture[struct{}](s.Eng)
	// Holder on kernel 1 (remote from the service on kernel 0).
	s.SpawnOn(s.UserPEs()[2], "holder", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, err := Dial(p, v, "m3fs")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		f, err := c.Open(p, "/shared", false, false)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, err := f.Read(p, 1024); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		holderDone.Complete(v)
	})
	s.SpawnOn(s.UserPEs()[1], "remover", func(v *core.VPE, p *sim.Proc) {
		holderDone.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		if err := c.Unlink(p, "/shared"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		unlinked.Complete(struct{}{})
	})
	s.Run()
	if !unlinked.Done() {
		t.Fatal("unlink did not complete")
	}
	// The holder's range capability must be gone from its kernel.
	holder := holderDone.Wait(nil)
	k := holder.Kernel()
	for _, c := range k.Store().VPECaps(holder.ID) {
		if c.Type().String() == "mem" {
			t.Fatalf("holder still owns %v after unlink", c)
		}
	}
}

func TestMultipleClientsShareExtentCaps(t *testing.T) {
	s, ready := startFS(t, 1, 3, func(fs *FS) {
		fs.MustCreate("/f", 1<<20)
	})
	var fsRef *FS
	var wg sim.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		s.Spawn("reader", func(v *core.VPE, p *sim.Proc) {
			fsRef = ready.Wait(p)
			c, _ := Dial(p, v, "m3fs")
			f, err := c.Open(p, "/f", false, false)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if _, err := f.Read(p, 1<<20); err != nil {
				t.Errorf("read: %v", err)
			}
			wg.Done()
		})
	}
	s.Run()
	if wg.Count() != 0 {
		t.Fatal("readers did not finish")
	}
	// The extent capability is derived once and shared: two obtains, one
	// derivation.
	st := fsRef.Stats()
	if st.ExtentsDerived != 1 {
		t.Fatalf("extents derived = %d, want 1", st.ExtentsDerived)
	}
	if st.RangeObtains != 2 {
		t.Fatalf("range obtains = %d, want 2", st.RangeObtains)
	}
}

func TestTruncateOnOpen(t *testing.T) {
	s, ready := startFS(t, 1, 2, func(fs *FS) {
		fs.MustCreate("/t", 2<<20)
	})
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		f, err := c.Open(p, "/t", false, true)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if f.Size() != 0 {
			t.Errorf("size after truncate = %d", f.Size())
		}
		if err := f.Write(p, 512); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	s.Run()
}

func TestReadPastEOF(t *testing.T) {
	s, ready := startFS(t, 1, 2, func(fs *FS) {
		fs.MustCreate("/small", 100)
	})
	s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, _ := Dial(p, v, "m3fs")
		f, _ := c.Open(p, "/small", false, false)
		n, err := f.Read(p, 1000)
		if err != nil || n != 100 {
			t.Errorf("read = %d, %v; want 100", n, err)
		}
		n, err = f.Read(p, 10)
		if err != nil || n != 0 {
			t.Errorf("read at EOF = %d, %v; want 0", n, err)
		}
	})
	s.Run()
}

func TestSpanningSession(t *testing.T) {
	// Service on kernel 0, client on kernel 1: session creation and range
	// obtains must traverse the inter-kernel protocol.
	s, ready := startFS(t, 2, 2, func(fs *FS) {
		fs.MustCreate("/x", 1<<20)
	})
	s.SpawnOn(s.UserPEs()[1], "app", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, err := Dial(p, v, "m3fs")
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		f, err := c.Open(p, "/x", false, false)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, err := f.Read(p, 1<<20); err != nil {
			t.Errorf("read: %v", err)
		}
		if err := f.Close(p, true); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	s.Run()
	k0, k1 := s.Kernel(0), s.Kernel(1)
	if k0.Stats().IKCReceived == 0 && k1.Stats().IKCReceived == 0 {
		t.Fatal("no inter-kernel traffic for a spanning session")
	}
	if k1.Stats().Sessions != 1 {
		t.Fatalf("client kernel sessions = %d, want 1", k1.Stats().Sessions)
	}
}

// TestWalkMatchesSplitReference: walk resolves paths component by component
// without building a slice; the answers must be those of the obvious
// strings.Split walk, including for empty components, a missing or non-
// directory intermediate, and the root.
func TestWalkMatchesSplitReference(t *testing.T) {
	fs := NewFS(Config{}, nil)
	fs.MustMkdirAllIn("", "/a//b/", 0)
	fs.MustMkdirAllIn("", "c", 0)
	fs.MustCreate("/a/b/f", 0)
	fs.MustCreate("a/g", 0)

	refWalk := func(path string) (*dirNode, string, node) {
		var parts []string
		for _, s := range strings.Split(path, "/") {
			if s != "" {
				parts = append(parts, s)
			}
		}
		if len(parts) == 0 {
			return nil, "", &fs.root
		}
		d := &fs.root
		for _, part := range parts[:len(parts)-1] {
			next, ok := d.lookup(part).(*dirNode)
			if !ok {
				return nil, "", nil
			}
			d = next
		}
		name := parts[len(parts)-1]
		return d, name, d.lookup(name)
	}
	// Directories and files compare by identity; a missing parent is a nil
	// *dirNode on both sides.
	same := func(a, b node) bool { return a == b }
	for _, path := range []string{
		"", "/", "///", "a", "/a", "a/", "//a//", "/a/b", "a//b/f", "/a/b/f/", "/a/g",
		"/a/missing", "/missing/f", "/a/g/under-a-file", "/a/b/f/x/y", "c", "/c/new",
	} {
		wp, wn, wnode := refWalk(path)
		gp, gn, gnode := fs.walk("", path)
		if !same(gp, wp) || gn != wn || !same(gnode, wnode) {
			t.Errorf("walk(%q) = (%p, %q, %v), reference says (%p, %q, %v)", path, gp, gn, gnode, wp, wn, wnode)
		}
		// A namespace carried beside the path resolves like the two joined
		// with a slash, wherever the cut falls.
		for i := 0; i <= len(path); i++ {
			dir, rest := path[:i], path[i:]
			wp, wn, wnode := refWalk(dir + "/" + rest)
			gp, gn, gnode := fs.walk(dir, rest)
			if !same(gp, wp) || gn != wn || !same(gnode, wnode) {
				t.Errorf("walk(%q, %q) = (%p, %q, %v), reference says (%p, %q, %v)", dir, rest, gp, gn, gnode, wp, wn, wnode)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { fs.walk("/a", "b/f") }); allocs != 0 {
		t.Errorf("walk allocates %v times per path, want 0", allocs)
	}
}
