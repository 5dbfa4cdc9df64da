// Package trace provides the application workloads of the paper's
// evaluation (§5.3.1): tar, untar, find, SQLite, LevelDB and PostMark.
//
// The paper records Linux syscall traces of the real applications and
// replays them against SemperOS. Those traces are not available, so this
// package generates synthetic traces that reproduce the paper's workload
// descriptions (Table 4 and §5.3.1):
//
//   - tar/untar pack or unpack a 4 MiB archive of five files between 128
//     and 2048 KiB — memory-bound, regular read/write patterns;
//   - find scans a directory tree with 80 entries for a non-existent file —
//     stat-heavy metadata load;
//   - SQLite creates a table, inserts 8 entries and selects them —
//     compute-heavy with bursts of capability activity around the database
//     and journal open/close;
//   - LevelDB does the same key-value work with higher-frequency data file
//     access;
//   - PostMark exercises a loaded mail server with heavy file churn — the
//     highest capability-operation rate.
//
// Each generator is tuned so that replaying the trace issues exactly the
// capability-operation count of the paper's Table 4 (tar 21, untar 11,
// find 3, SQLite 24, LevelDB 22, PostMark 38 per instance), and so that the
// single-instance runtime approximates the paper's measured rates. The
// tests assert the counts.
package trace

import "repro/internal/sim"

// OpKind enumerates trace operations.
type OpKind uint8

// Trace operations. File-addressed ops use Slot to name the handle.
const (
	// OpCompute models local computation for Cycles.
	OpCompute OpKind = iota
	// OpOpen opens Path into Slot (Create/Trunc per flags).
	OpOpen
	// OpRead reads Bytes sequentially from Slot.
	OpRead
	// OpWrite writes Bytes sequentially to Slot.
	OpWrite
	// OpSeek sets Slot's position to Bytes.
	OpSeek
	// OpClose closes Slot; if Revoke, the client revokes the range
	// capabilities it obtained for the file.
	OpClose
	// OpStat stats Path.
	OpStat
	// OpMkdir creates directory Path.
	OpMkdir
	// OpUnlink removes Path (the service revokes its extent caps).
	OpUnlink
	// OpReaddir lists directory Path.
	OpReaddir
)

// Op is one trace operation.
type Op struct {
	Kind   OpKind
	Path   string
	Slot   int
	Bytes  uint64
	Cycles sim.Duration
	Create bool
	Trunc  bool
	Revoke bool
}

// PreFile is a file the filesystem image must contain before replay.
type PreFile struct {
	Path string
	Size uint64
}

// Trace is a generated application workload.
type Trace struct {
	// Name identifies the application.
	Name string
	// Ops is the operation sequence.
	Ops []Op
	// Files are preloaded input files (paths relative to the instance
	// prefix).
	Dirs  []string
	Files []PreFile
	// WantCapOps is the capability-operation count replaying the trace must
	// produce (the paper's Table 4 value), asserted by tests and the
	// harness.
	WantCapOps uint64
	// TargetRuntime is the approximate single-instance runtime in cycles,
	// derived from the paper's Table 4 single-instance rates.
	TargetRuntime sim.Duration
}

// Footprint returns the bytes of image space an instance needs: preloaded
// files plus the high-water size of every path the trace writes, each
// rounded up to whole extents. The filesystem's bump allocator never
// reclaims extents, so unlinked files still count.
func (t *Trace) Footprint(extentBytes uint64) uint64 {
	roundUp := func(n uint64) uint64 {
		if n == 0 {
			return extentBytes
		}
		return (n + extentBytes - 1) / extentBytes * extentBytes
	}
	high := make(map[string]uint64) // path -> high-water size
	for _, f := range t.Files {
		high[f.Path] = f.Size
	}
	slotPath := make(map[int]string)
	slotPos := make(map[int]uint64)
	var graveyard uint64
	for _, op := range t.Ops {
		switch op.Kind {
		case OpOpen:
			slotPath[op.Slot] = op.Path
			slotPos[op.Slot] = 0
			if _, ok := high[op.Path]; !ok {
				high[op.Path] = 0
			}
		case OpSeek:
			slotPos[op.Slot] = op.Bytes
		case OpWrite:
			pos := slotPos[op.Slot] + op.Bytes
			slotPos[op.Slot] = pos
			if path := slotPath[op.Slot]; pos > high[path] {
				high[path] = pos
			}
		case OpRead:
			slotPos[op.Slot] += op.Bytes
		case OpUnlink:
			// The extents of an unlinked file are never reclaimed by the
			// bump allocator; a re-created file gets fresh ones.
			graveyard += roundUp(high[op.Path])
			high[op.Path] = 0
		}
	}
	total := graveyard
	for _, size := range high {
		total += roundUp(size)
	}
	return total + extentBytes
}

// KiB and MiB sizes for readability.
const (
	KiB = 1 << 10
	MiB = 1 << 20
)

// All returns every application trace, in the paper's Table 4 order.
func All() []*Trace {
	return []*Trace{Tar(), Untar(), Find(), SQLite(), LevelDB(), PostMark()}
}

// ByName returns the trace with the given name, or nil. It generates that
// trace alone.
func ByName(name string) *Trace {
	switch name {
	case "tar":
		return Tar()
	case "untar":
		return Untar()
	case "find":
		return Find()
	case "sqlite":
		return SQLite()
	case "leveldb":
		return LevelDB()
	case "postmark":
		return PostMark()
	}
	return nil
}

// tarInputSizes are the five archive members (128..2048 KiB, 3968 KiB
// total, §5.3.1: "an archive of 4 MiB containing five files of sizes
// between 128 and 2048 KiB").
var tarInputSizes = []uint64{128 * KiB, 256 * KiB, 512 * KiB, 1024 * KiB, 2048 * KiB}

// Tar packs five input files into an archive.
//
// Cap ops (extent = 1 MiB): 1 session + 6 read obtains + 6 read revokes +
// 4 write obtains + 4 write revokes = 21 (Table 4).
func Tar() *Trace {
	t := &Trace{Name: "tar", WantCapOps: 21, TargetRuntime: 5_758_000}
	for i, size := range tarInputSizes {
		t.Files = append(t.Files, PreFile{Path: file('f', i), Size: size})
	}
	t.op(Op{Kind: OpOpen, Path: "archive.tar", Slot: 9, Create: true})
	for i, size := range tarInputSizes {
		t.op(Op{Kind: OpStat, Path: file('f', i)}) // lstat before open
		t.op(Op{Kind: OpOpen, Path: file('f', i), Slot: i})
		t.op(Op{Kind: OpCompute, Cycles: 120_000}) // header generation
		t.op(Op{Kind: OpRead, Slot: i, Bytes: size})
		t.op(Op{Kind: OpWrite, Slot: 9, Bytes: size})
		t.op(Op{Kind: OpClose, Slot: i, Revoke: true})
		t.op(Op{Kind: OpStat, Path: file('f', i)}) // mtime check after read
		t.op(Op{Kind: OpCompute, Cycles: 330_000}) // checksumming, padding
	}
	t.op(Op{Kind: OpStat, Path: "archive.tar"})
	t.op(Op{Kind: OpClose, Slot: 9, Revoke: true})
	t.op(Op{Kind: OpCompute, Cycles: 2_148_000}) // checksum/compression tail
	return t
}

// Untar unpacks the archive into five files. The process exits right after
// unpacking, so range capabilities are cleaned up in bulk at exit rather
// than revoked one by one: 1 session + 4 archive obtains + 6 write obtains
// = 11 cap ops (Table 4).
func Untar() *Trace {
	t := &Trace{Name: "untar", WantCapOps: 11, TargetRuntime: 5_482_000}
	var total uint64
	for _, s := range tarInputSizes {
		total += s
	}
	t.Files = []PreFile{{Path: "archive.tar", Size: total}}
	t.op(Op{Kind: OpStat, Path: "archive.tar"})
	t.op(Op{Kind: OpOpen, Path: "archive.tar", Slot: 9})
	for i, size := range tarInputSizes {
		t.op(Op{Kind: OpCompute, Cycles: 150_000}) // header parse
		t.op(Op{Kind: OpRead, Slot: 9, Bytes: size})
		t.op(Op{Kind: OpOpen, Path: file('o', i), Slot: i, Create: true})
		t.op(Op{Kind: OpWrite, Slot: i, Bytes: size})
		t.op(Op{Kind: OpClose, Slot: i})           // no revoke: exit cleans up
		t.op(Op{Kind: OpStat, Path: file('o', i)}) // chmod/utimensat walk
		t.op(Op{Kind: OpCompute, Cycles: 396_000})
	}
	t.op(Op{Kind: OpClose, Slot: 9})
	t.op(Op{Kind: OpCompute, Cycles: 1_490_000})
	return t
}

// Find scans a directory tree with 80 entries for a non-existent file
// (§5.3.1): almost pure metadata load on the filesystem service, with the
// directory index read through memory capabilities. 1 session + 2 index
// obtains = 3 cap ops (Table 4).
func Find() *Trace {
	t := &Trace{Name: "find", WantCapOps: 3, TargetRuntime: 4_580_000}
	const dirs = 8
	const filesPerDir = 9 // 8 dirs + 8*9 files = 80 entries
	t.Files = append(t.Files, PreFile{Path: "dirindex", Size: 2 * MiB})
	for d := 0; d < dirs; d++ {
		dir := file('d', d)
		t.Dirs = append(t.Dirs, dir)
		for f := 0; f < filesPerDir; f++ {
			t.Files = append(t.Files, PreFile{Path: dir + "/" + file('f', f), Size: 0})
		}
	}
	// Read the directory index (2 extents), then walk.
	t.op(Op{Kind: OpOpen, Path: "dirindex", Slot: 0})
	t.op(Op{Kind: OpRead, Slot: 0, Bytes: 2 * MiB})
	for d := 0; d < dirs; d++ {
		dir := file('d', d)
		t.op(Op{Kind: OpReaddir, Path: dir})
		for f := 0; f < filesPerDir; f++ {
			t.op(Op{Kind: OpStat, Path: dir + "/" + file('f', f)})
			t.op(Op{Kind: OpCompute, Cycles: 36_000}) // name comparison, getdents decode
		}
	}
	t.op(Op{Kind: OpClose, Slot: 0})
	t.op(Op{Kind: OpCompute, Cycles: 1_510_000})
	return t
}

// SQLite creates a table, inserts 8 entries and selects them (§5.3.1):
// compute-intensive with bursts of capability operations around the
// database and journal open/close. 1 session + db(3 obtains + 3 revokes) +
// 4 journal cycles (2 obtains + 2 revokes each) + 1 select obtain = 24 cap
// ops (Table 4).
func SQLite() *Trace {
	t := &Trace{Name: "sqlite", WantCapOps: 24, TargetRuntime: 8_009_000}
	t.op(Op{Kind: OpCompute, Cycles: 900_000}) // library init, parsing
	t.op(Op{Kind: OpOpen, Path: "test.db", Slot: 0, Create: true})
	// Four transactions: CREATE TABLE, two insert batches, COMMIT of the
	// final batch. Each cycles the rollback journal.
	dbWrites := []uint64{1 * MiB, 1 * MiB, 1 * MiB, 0}
	for i, w := range dbWrites {
		// Locking protocol: SQLite probes journal and db state repeatedly
		// (fcntl/fstat/access storms) before and after every transaction.
		for j := 0; j < 11; j++ {
			t.op(Op{Kind: OpStat, Path: "test.db-journal"})
			t.op(Op{Kind: OpStat, Path: "test.db"})
		}
		t.op(Op{Kind: OpOpen, Path: "test.db-journal", Slot: 1, Create: true, Trunc: true})
		t.op(Op{Kind: OpWrite, Slot: 1, Bytes: 2 * MiB}) // journal: 2 obtains
		t.op(Op{Kind: OpCompute, Cycles: 880_000})       // SQL execution
		if w > 0 {
			t.op(Op{Kind: OpWrite, Slot: 0, Bytes: w}) // db page writes
		}
		t.op(Op{Kind: OpClose, Slot: 1, Revoke: true})
		// Journal deletion: SQLite stats the journal and unlinks it after
		// every transaction, revoking its extent capabilities service-side.
		t.op(Op{Kind: OpStat, Path: "test.db-journal"})
		t.op(Op{Kind: OpUnlink, Path: "test.db-journal"})
		_ = i
	}
	// SELECT: re-open the database read-only; the obtained range cap is
	// dropped at exit (not individually revoked).
	t.op(Op{Kind: OpOpen, Path: "test.db", Slot: 2})
	t.op(Op{Kind: OpSeek, Slot: 2, Bytes: 0})
	t.op(Op{Kind: OpRead, Slot: 2, Bytes: 512 * KiB})
	t.op(Op{Kind: OpCompute, Cycles: 1_200_000}) // row decoding
	t.op(Op{Kind: OpClose, Slot: 2})
	t.op(Op{Kind: OpClose, Slot: 0, Revoke: true})
	return t
}

// LevelDB creates a table (via its log-structured machinery), inserts 8
// entries and selects them (§5.3.1): like SQLite but with higher-frequency
// access to its data files. 1 session + WAL write(3+3) + WAL recovery
// read(1+1) + SST write(2+2) + SST read(2+2) + CURRENT/MANIFEST(2+2) +
// 1 unrevoked manifest read = 22 cap ops (Table 4).
func LevelDB() *Trace {
	t := &Trace{Name: "leveldb", WantCapOps: 22, TargetRuntime: 5_029_000}
	t.op(Op{Kind: OpCompute, Cycles: 350_000})
	// Write-ahead log: three append bursts, each preceded by the version
	// probing LevelDB does (GetFileSize/FileExists on its data files).
	t.op(Op{Kind: OpOpen, Path: "000001.log", Slot: 0, Create: true})
	for i := 0; i < 3; i++ {
		for j := 0; j < 10; j++ {
			t.op(Op{Kind: OpStat, Path: "000001.log"})
		}
		t.op(Op{Kind: OpWrite, Slot: 0, Bytes: 1 * MiB})
		t.op(Op{Kind: OpCompute, Cycles: 516_000}) // memtable updates
	}
	t.op(Op{Kind: OpClose, Slot: 0, Revoke: true})
	// Log recovery check: re-read the head of the WAL.
	t.op(Op{Kind: OpOpen, Path: "000001.log", Slot: 5})
	t.op(Op{Kind: OpRead, Slot: 5, Bytes: 1 * MiB})
	t.op(Op{Kind: OpClose, Slot: 5, Revoke: true})
	// Memtable flush to an SSTable.
	t.op(Op{Kind: OpOpen, Path: "000002.ldb", Slot: 1, Create: true})
	t.op(Op{Kind: OpWrite, Slot: 1, Bytes: 2 * MiB})
	t.op(Op{Kind: OpClose, Slot: 1, Revoke: true})
	// Manifest churn.
	t.op(Op{Kind: OpOpen, Path: "MANIFEST-000003", Slot: 2, Create: true})
	t.op(Op{Kind: OpWrite, Slot: 2, Bytes: 256 * KiB})
	t.op(Op{Kind: OpClose, Slot: 2, Revoke: true})
	t.op(Op{Kind: OpOpen, Path: "CURRENT", Slot: 2, Create: true})
	t.op(Op{Kind: OpWrite, Slot: 2, Bytes: 4 * KiB})
	t.op(Op{Kind: OpClose, Slot: 2, Revoke: true})
	// Reads: manifest (dropped at exit) + SSTable scan.
	t.op(Op{Kind: OpOpen, Path: "MANIFEST-000003", Slot: 3})
	t.op(Op{Kind: OpRead, Slot: 3, Bytes: 64 * KiB})
	t.op(Op{Kind: OpClose, Slot: 3})
	t.op(Op{Kind: OpOpen, Path: "000002.ldb", Slot: 4})
	t.op(Op{Kind: OpSeek, Slot: 4, Bytes: 0})
	t.op(Op{Kind: OpRead, Slot: 4, Bytes: 2 * MiB})
	t.op(Op{Kind: OpCompute, Cycles: 910_000}) // key comparisons
	t.op(Op{Kind: OpClose, Slot: 4, Revoke: true})
	t.op(Op{Kind: OpCompute, Cycles: 600_000})
	return t
}

// PostMark resembles a heavily loaded mail server (§5.3.1): little
// computation, many operations on mail files — the highest load on the
// capability system. 1 session + 1 mailbox index obtain + 9 mail cycles
// (create-write-close-revoke, open-read-close-revoke) = 38 cap ops
// (Table 4).
func PostMark() *Trace {
	t := &Trace{Name: "postmark", WantCapOps: 38, TargetRuntime: 1_795_000}
	t.Dirs = []string{"mail"}
	t.Files = []PreFile{{Path: "mailbox.idx", Size: 256 * KiB}}
	t.op(Op{Kind: OpOpen, Path: "mailbox.idx", Slot: 9})
	t.op(Op{Kind: OpRead, Slot: 9, Bytes: 256 * KiB}) // index: 1 obtain
	const mails = 9
	for i := 0; i < mails; i++ {
		path := "mail/" + file('m', i)
		t.op(Op{Kind: OpOpen, Path: path, Slot: 0, Create: true})
		t.op(Op{Kind: OpWrite, Slot: 0, Bytes: 32 * KiB})
		t.op(Op{Kind: OpClose, Slot: 0, Revoke: true})
		t.op(Op{Kind: OpCompute, Cycles: 170_000})
		t.op(Op{Kind: OpOpen, Path: path, Slot: 0})
		t.op(Op{Kind: OpRead, Slot: 0, Bytes: 32 * KiB})
		t.op(Op{Kind: OpClose, Slot: 0, Revoke: true})
		t.op(Op{Kind: OpStat, Path: path})
		t.op(Op{Kind: OpUnlink, Path: path})
		t.op(Op{Kind: OpCompute, Cycles: 165_000})
	}
	t.op(Op{Kind: OpClose, Slot: 9})
	return t
}

func (t *Trace) op(o Op) { t.Ops = append(t.Ops, o) }

// file builds a short deterministic file name like "f3".
func file(prefix byte, i int) string {
	return string(prefix) + itoa(i)
}

// Itoa formats a small non-negative integer; workload naming uses it in
// place of strconv.Itoa for the allocation it saves. Inlined, its
// conversion of a stack buffer to a string feeds a concatenation such as
// "inst" + Itoa(i) without an allocation of its own, so the name costs one
// allocation; strconv.Itoa allocates its result for n >= 100, which makes
// two (TestItoa pins the one).
func Itoa(i int) string { return itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
