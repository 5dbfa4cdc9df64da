package trace

import (
	"reflect"
	"testing"
)

func TestAllTracesPresent(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("traces = %d, want 6", len(all))
	}
	names := map[string]uint64{
		"tar": 21, "untar": 11, "find": 3, "sqlite": 24, "leveldb": 22, "postmark": 38,
	}
	for _, tr := range all {
		want, ok := names[tr.Name]
		if !ok {
			t.Errorf("unexpected trace %q", tr.Name)
			continue
		}
		if tr.WantCapOps != want {
			t.Errorf("%s WantCapOps = %d, want %d (Table 4)", tr.Name, tr.WantCapOps, want)
		}
		if len(tr.Ops) == 0 {
			t.Errorf("%s has no ops", tr.Name)
		}
		if tr.TargetRuntime == 0 {
			t.Errorf("%s has no target runtime", tr.Name)
		}
	}
}

// TestByName: ByName generates each of All's traces on its own, equal to
// All's in every field, and knows no other name.
func TestByName(t *testing.T) {
	for _, want := range All() {
		if got := ByName(want.Name); !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) differs from All's trace of that name", want.Name)
		}
	}
	for _, name := range []string{"nope", "", "Tar", "nginx"} {
		if got := ByName(name); got != nil {
			t.Errorf("ByName(%q) = trace %q, want nil", name, got.Name)
		}
	}
}

func TestTarArchiveSums(t *testing.T) {
	// §5.3.1: 4 MiB archive, five files between 128 and 2048 KiB.
	var total uint64
	for _, s := range tarInputSizes {
		total += s
	}
	if total != 3968*KiB {
		t.Fatalf("input sizes sum to %d KiB, want 3968", total/KiB)
	}
	if len(tarInputSizes) != 5 {
		t.Fatalf("input files = %d, want 5", len(tarInputSizes))
	}
	for _, s := range tarInputSizes {
		if s < 128*KiB || s > 2048*KiB {
			t.Fatalf("input size %d outside 128..2048 KiB", s/KiB)
		}
	}
}

func TestFindScans80Entries(t *testing.T) {
	tr := Find()
	stats, readdirs := 0, 0
	for _, op := range tr.Ops {
		switch op.Kind {
		case OpStat:
			stats++
		case OpReaddir:
			readdirs++
		}
	}
	// §5.3.1: a directory tree with 80 entries.
	if stats+readdirs != 80 {
		t.Fatalf("find touches %d entries, want 80", stats+readdirs)
	}
}

func TestSlotDiscipline(t *testing.T) {
	// Every read/write/close targets a slot that was opened before and not
	// closed since.
	for _, tr := range All() {
		open := map[int]bool{}
		for i, op := range tr.Ops {
			switch op.Kind {
			case OpOpen:
				open[op.Slot] = true
			case OpRead, OpWrite, OpSeek:
				if !open[op.Slot] {
					t.Errorf("%s op %d uses closed slot %d", tr.Name, i, op.Slot)
				}
			case OpClose:
				if !open[op.Slot] {
					t.Errorf("%s op %d closes closed slot %d", tr.Name, i, op.Slot)
				}
				delete(open, op.Slot)
			}
		}
	}
}

func TestReadsCoveredByPreloadsOrWrites(t *testing.T) {
	// A read may only touch bytes that were preloaded or written earlier.
	for _, tr := range All() {
		size := map[string]uint64{}
		for _, f := range tr.Files {
			size[f.Path] = f.Size
		}
		slotPath := map[int]string{}
		slotPos := map[int]uint64{}
		for i, op := range tr.Ops {
			switch op.Kind {
			case OpOpen:
				slotPath[op.Slot] = op.Path
				if op.Trunc {
					size[op.Path] = 0
				}
				slotPos[op.Slot] = 0
			case OpSeek:
				slotPos[op.Slot] = op.Bytes
			case OpWrite:
				pos := slotPos[op.Slot] + op.Bytes
				slotPos[op.Slot] = pos
				if pos > size[slotPath[op.Slot]] {
					size[slotPath[op.Slot]] = pos
				}
			case OpRead:
				pos := slotPos[op.Slot]
				if pos+op.Bytes > size[slotPath[op.Slot]] {
					t.Errorf("%s op %d reads past EOF of %s", tr.Name, i, slotPath[op.Slot])
				}
				slotPos[op.Slot] += op.Bytes
			case OpUnlink:
				delete(size, op.Path)
			}
		}
	}
}

func TestFootprintCoversWrites(t *testing.T) {
	for _, tr := range All() {
		fp := tr.Footprint(1 << 20)
		if fp == 0 {
			t.Errorf("%s footprint = 0", tr.Name)
		}
		// PostMark creates 9 separate 1-extent mail files: the footprint
		// must account for every created path, not just the byte sum.
		if tr.Name == "postmark" && fp < 10<<20 {
			t.Errorf("postmark footprint %d too small for 9 mail extents", fp)
		}
	}
}

var (
	itoaArg  = 511
	itoaSink string
)

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", 511: "511"}
	for n, want := range cases {
		if got := Itoa(n); got != want {
			t.Errorf("Itoa(%d) = %q, want %q", n, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { itoaSink = "inst" + Itoa(itoaArg) }); allocs != 1 {
		t.Errorf(`"inst" + Itoa(%d) allocates %v times, want 1`, itoaArg, allocs)
	}
}
