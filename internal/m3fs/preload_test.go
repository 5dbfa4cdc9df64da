package m3fs_test

import (
	"testing"

	"repro/internal/m3fs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// instances are the instance directories the preload tests lay out side by
// side in one image, one of them nested.
var instances = []string{"inst0", "inst17", "srv/inst3"}

// joinedPreload is the preload as a loop over joined paths, the reference
// workload.Preload must reproduce.
func joinedPreload(tr *trace.Trace, prefixes []string) func(*m3fs.FS) {
	return func(fs *m3fs.FS) {
		for _, prefix := range prefixes {
			fs.MustMkdirAllIn("", prefix, 0)
			for _, d := range tr.Dirs {
				fs.MustMkdirAllIn("", prefix+"/"+d, 0)
			}
			for _, f := range tr.Files {
				fs.MustCreate(prefix+"/"+f.Path, f.Size)
			}
		}
	}
}

// configFor sizes an instance for len(prefixes) trees of tr.
func configFor(tr *trace.Trace, prefixes []string) m3fs.Config {
	image := tr.Footprint(m3fs.ExtentBytes)*uint64(len(prefixes)) + 8<<20
	return m3fs.Config{ImageBytes: image}
}

// TestPreloadMatchesJoinedPaths: for every trace, workload.Preload builds
// the image the joined-path loop builds — the same directories and files in
// the same readdir order, the same file ids, sizes and extent offsets, and
// the same bump-allocator position. Tar's 2 MiB files span two extents.
func TestPreloadMatchesJoinedPaths(t *testing.T) {
	for _, tr := range trace.All() {
		cfg := configFor(tr, instances)
		want, got := m3fs.NewFS(cfg, nil), m3fs.NewFS(cfg, nil)
		joinedPreload(tr, instances)(want)
		workload.Preload(tr, instances)(got)
		if g, w := got.Listing(), want.Listing(); g != w {
			t.Errorf("%s: preload built\n%s\nwant\n%s", tr.Name, g, w)
		}
	}
}

// TestPreloadAllocationCeiling pins the allocations of booting an image,
// and that they do not grow with the number of instance trees or with the
// trace's directory count. NewFS makes 2 (the FS and its session map). The
// preload makes one block of file records, one of directory records and
// one arena each of extents and entries, all sized for the whole preload
// (Reserve, ReserveDirs; a trace that preloads no file needs neither of
// the first and last): nothing per prefix, per directory or per file, so
// one tree of find (73 files in 8 directories) costs what 64 of tar do.
// With one Go map per directory, one tree cost 6 (sqlite) to 43 (find).
func TestPreloadAllocationCeiling(t *testing.T) {
	const ceiling = 6
	for _, tr := range trace.All() {
		var first float64
		for _, n := range []int{1, 8, 64} {
			prefixes := make([]string, n)
			for i := range prefixes {
				prefixes[i] = "inst" + trace.Itoa(i)
			}
			cfg, preload := configFor(tr, prefixes), workload.Preload(tr, prefixes)
			allocs := testing.AllocsPerRun(20, func() { preload(m3fs.NewFS(cfg, nil)) })
			if allocs > ceiling {
				t.Errorf("%s: preloading %d instance trees allocates %v times, ceiling %v", tr.Name, n, allocs, ceiling)
			}
			if n == 1 {
				first = allocs
			} else if allocs != first {
				t.Errorf("%s: preloading %d instance trees allocates %v times, one tree %v", tr.Name, n, allocs, first)
			}
		}
	}
}

// BenchmarkPreload is the host cost of booting an image with one instance
// tree of the postmark trace.
func BenchmarkPreload(b *testing.B) {
	tr := trace.PostMark()
	cfg, preload := configFor(tr, instances[:1]), workload.Preload(tr, instances[:1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preload(m3fs.NewFS(cfg, nil))
	}
}
