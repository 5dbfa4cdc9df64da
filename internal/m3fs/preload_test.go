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
			fs.MustMkdirAll(prefix)
			for _, d := range tr.Dirs {
				fs.MustMkdirAll(prefix + "/" + d)
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

// TestPreloadAllocationCeiling pins the allocations of booting an image with
// one instance tree of each trace. NewFS makes 4 (the FS and its three maps)
// and the root's first entry 1 more. Each directory is one map: 1 or 2
// allocations up to eight entries, 4 beyond (find's nine-entry
// directories), made at that size so it never grows. The files take one
// block of records and one arena of extents between them. No path is
// joined and no file has an allocation of its own. The ceilings are the
// measured counts, with and without the race detector.
func TestPreloadAllocationCeiling(t *testing.T) {
	ceiling := map[string]float64{
		"tar": 9, "untar": 9, "find": 43, "sqlite": 6, "leveldb": 6, "postmark": 10,
	}
	for _, tr := range trace.All() {
		cfg, preload := configFor(tr, instances[:1]), workload.Preload(tr, instances[:1])
		allocs := testing.AllocsPerRun(50, func() { preload(m3fs.NewFS(cfg, nil)) })
		if allocs > ceiling[tr.Name] {
			t.Errorf("%s: preloading one instance tree allocates %v times, ceiling %v", tr.Name, allocs, ceiling[tr.Name])
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
