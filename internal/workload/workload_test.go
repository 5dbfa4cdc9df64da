package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestReplayCapOpsMatchTable4 replays every application trace once on a
// small machine and asserts that the capability-operation count equals the
// paper's Table 4 value exactly, and the Nginx request trace's count too.
func TestReplayCapOpsMatchTable4(t *testing.T) {
	for _, tr := range append(trace.All(), trace.NginxRequest()) {
		tr := tr
		t.Run(tr.Name, func(t *testing.T) {
			res, err := Run(Config{Kernels: 1, Services: 1, Instances: 1, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Instances[0].CapOps
			if got != tr.WantCapOps {
				t.Fatalf("%s cap ops = %d, want %d (Table 4)", tr.Name, got, tr.WantCapOps)
			}
		})
	}
}

// TestReplaySpanning runs instances across two kernels with one service,
// forcing group-spanning sessions and exchanges.
func TestReplaySpanning(t *testing.T) {
	res, err := Run(Config{Kernels: 2, Services: 1, Instances: 2, Trace: trace.Tar()})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCapOps != 2*21 {
		t.Fatalf("total cap ops = %d, want 42", res.TotalCapOps)
	}
	if res.Kernel.IKCSent == 0 {
		t.Fatal("no inter-kernel traffic despite spanning placement")
	}
}

func TestPlacementPrefersLocalService(t *testing.T) {
	cfg := Config{Kernels: 4, Services: 2, Instances: 4, Trace: trace.Find()}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCapOps != 4*3 {
		t.Fatalf("cap ops = %d", res.TotalCapOps)
	}
}

func TestSystemEfficiency(t *testing.T) {
	// Weighted by application PEs over total PEs.
	if got := SystemEfficiency(1.0, 2, 2, 12); got != 12.0/16.0 {
		t.Fatalf("system efficiency = %v", got)
	}
	if got := SystemEfficiency(0.5, 8, 8, 16); got != 0.5*16.0/32.0 {
		t.Fatalf("system efficiency = %v", got)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Kernels: 1, Services: 0, Instances: 1, Trace: trace.Tar()}); err == nil {
		t.Error("zero services accepted")
	}
}

// A count too large for the machine is named before any sum of counts can
// wrap it to a small or negative one.
func TestOversizedCounts(t *testing.T) {
	const huge = math.MaxInt
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Kernels: 3, Services: 2, Instances: huge, Trace: trace.Tar()}, fmt.Sprintf("workload: %d instances exceed the DDL key space of 4096", huge)},
		{Config{Kernels: 3, Services: huge, Instances: 2, Trace: trace.Tar()}, fmt.Sprintf("workload: %d services exceed the DDL key space of 4096", huge)},
	} {
		if err := c.cfg.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%+v: %v, want %q", c.cfg, err, c.want)
		}
	}
	for _, c := range []struct {
		servers int
		want    string
	}{
		{huge, fmt.Sprintf("workload: %d servers and their load generators exceed the DDL key space of 4096", huge)},
		{huge/2 + 1, fmt.Sprintf("workload: %d servers and their load generators exceed the DDL key space of 4096", huge/2+1)},
		{2049, "workload: 2049 servers and their load generators exceed the DDL key space of 4096"},
		{math.MinInt + 1, "workload: servers must be positive"},
	} {
		if _, err := RunNginx(NginxConfig{Kernels: 2, Services: 2, Servers: c.servers}); err == nil || err.Error() != c.want {
			t.Errorf("%d servers: %v, want %q", c.servers, err, c.want)
		}
	}
}

func TestNginxRuns(t *testing.T) {
	res, err := RunNginx(NginxConfig{Kernels: 2, Services: 2, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if res.Duration == 0 {
		t.Fatal("empty measurement window")
	}
}

// TestDeterminism: identical configurations produce identical results.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		res, err := Run(Config{Kernels: 2, Services: 2, Instances: 4, Trace: trace.SQLite()})
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Makespan), res.TotalCapOps
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", m1, c1, m2, c2)
	}
}

// TestReplayTimingPinned: the six traces at the quick sweep's Table 4 size
// (8 kernels, 8 services, 64 instances) end at exactly these cycles, with
// these capability-operation counts and per-instance start and end times
// (FNV-1a over "start end\n" per instance, in instance order). The values
// were taken before the m3fs protocol records, the file handles and the
// kernel's service queries became recycled objects; a host-side change to
// the application path must reproduce them.
func TestReplayTimingPinned(t *testing.T) {
	for _, want := range []struct {
		name     string
		makespan uint64
		capOps   uint64
		times    uint64
	}{
		{"tar", 6471390, 1344, 0xc3b6c6bf3a895aef},
		{"untar", 6135408, 704, 0xe9342f7759b1a6b7},
		{"find", 5112393, 192, 0xa8f65765680299dc},
		{"sqlite", 10263917, 1536, 0x985042b7941180e5},
		{"leveldb", 5811693, 1408, 0xc51ea2aaee9a16d5},
		{"postmark", 4036551, 2432, 0xd7278f5e56271470},
	} {
		tr := trace.ByName(want.name)
		if tr == nil {
			t.Fatalf("no trace %q", want.name)
		}
		res, err := Run(Config{Kernels: 8, Services: 8, Instances: 64, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, in := range res.Instances {
			fmt.Fprintf(h, "%d %d\n", in.Start, in.End)
		}
		if uint64(res.Makespan) != want.makespan || res.TotalCapOps != want.capOps || h.Sum64() != want.times {
			t.Errorf("%s: makespan %d, cap ops %d, instance times %#x; pinned %d, %d, %#x",
				want.name, res.Makespan, res.TotalCapOps, h.Sum64(), want.makespan, want.capOps, want.times)
		}
	}
}

// BenchmarkRun is one workload.Run per trace at the quick sweep's Table 4
// size; its allocs/op is what machine boot, image preload and the replay of
// 64 instances allocate together.
func BenchmarkRun(b *testing.B) {
	for _, tr := range trace.All() {
		b.Run(tr.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(Config{Kernels: 8, Services: 8, Instances: 64, Trace: tr}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunAllocationCeiling pins what one Run allocates per instance, warm:
// a 4-kernel machine with 4 services and 64 instances per trace, on an
// engine recycled through a pool, as the harness runs it. Machine boot,
// image preload, replay and audit all count. The VPEs, sessions, clients,
// open files, directories, listings, extent lists, messages and wait
// records come from blocks, arenas and tables made once per run, so what is
// left per instance is its procs — the instance's and the kernel threads'
// — and the kernel records they make; the traces are within one allocation
// of each other. The ceilings are the measured counts (30.0 to 30.8) plus
// at most 5%, rounded down to whole allocations, so that a stray runtime
// allocation does not fail the pin; with one Go map per directory, names
// and closures made per instance and one reply listing per readdir, every
// trace was at 62.9 to 103.2, and with a closure per proc and per record
// event at 36.8 to 37.9.
func TestRunAllocationCeiling(t *testing.T) {
	const instances = 64
	ceiling := map[string]float64{
		"tar": 32, "untar": 31, "find": 32, "sqlite": 32, "leveldb": 31, "postmark": 31,
	}
	pool := sim.NewPool()
	for _, tr := range trace.All() {
		run := func() {
			eng := pool.Get()
			defer pool.Put(eng)
			if _, err := Run(Config{Kernels: 4, Services: 4, Instances: instances, Trace: tr, Engine: eng}); err != nil {
				t.Fatal(err)
			}
		}
		per := testing.AllocsPerRun(3, run) / instances
		t.Logf("%s: %.1f allocations per instance", tr.Name, per)
		if per > ceiling[tr.Name] {
			t.Errorf("%s: a warm run allocates %.1f times per instance, ceiling %v", tr.Name, per, ceiling[tr.Name])
		}
	}
}
