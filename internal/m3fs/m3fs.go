// Package m3fs implements the in-memory filesystem service of M3/SemperOS
// (paper §2.2): files live in global memory, and clients access file data
// through byte-granular memory capabilities handed out per file range —
// much like memory-mapped I/O, without involving the filesystem or the
// kernel on the data path.
//
// The service exposes two interfaces:
//
//   - a data-plane IPC interface (open, stat, mkdir, unlink, readdir,
//     extend, close) carried directly over the session's DTU channel, and
//   - capability exchanges over the session: a client obtains a memory
//     capability for a file extent; closing a file revokes the obtained
//     capabilities.
//
// Each service instance owns a private copy of the filesystem image
// (paper §5.3.1: scaling m3fs is done by adding instances, each with its
// own image).
package m3fs

import (
	"fmt"
	"strings"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// ExtentBytes is the size of one extent: the unit of memory-capability
// hand-out.
const ExtentBytes = 1 << 20

// Service costs, in cycles.
const (
	// pathWalkCycles is the processing cost of resolving a path on top of
	// the base request cost.
	pathWalkCycles sim.Duration = 1800
	// extentCycles is the per-extent cost of loading a file's extent table
	// on first open and of allocating new extents on extend. Extent tables
	// are cached, so re-opens pay only the path walk — the behavior that
	// lets m3fs sustain file-churn workloads like PostMark.
	extentCycles sim.Duration = 5000
	// sessionCycles is the cost of setting up a client session.
	sessionCycles sim.Duration = 5000
)

// Config parameterizes a filesystem instance.
type Config struct {
	// ServiceName is the name registered in the service directory.
	ServiceName string
	// ImageBytes is the size of the in-memory image (default 16 MiB).
	ImageBytes uint64
}

func (c Config) withDefaults() Config {
	if c.ServiceName == "" {
		c.ServiceName = "m3fs"
	}
	if c.ImageBytes == 0 {
		c.ImageBytes = 16 << 20
	}
	return c
}

// Stats counts service activity.
type Stats struct {
	Opens, Closes  uint64
	RangeObtains   uint64
	ExtentsDerived uint64
}

// --- request/reply records -------------------------------------------------

// Op selects what a Request asks for.
type Op uint8

// The data-plane operations, and the one session obtain.
const (
	OpOpen    Op = iota // open Path, optionally creating/truncating it
	OpStat              // query the metadata of Path
	OpMkdir             // create directory Path
	OpUnlink            // remove file Path, revoking all extent capabilities handed out for it
	OpReaddir           // list directory Path
	OpExtend            // grow the file at FD to Off bytes, allocating extents
	OpClose             // close FD
	OpRange             // session obtain: a memory capability covering offset Off of FD
)

// Request is the one request record of the protocol. It travels by pointer
// — through Session.Call for the data-plane operations, through
// Session.Obtain for OpRange — and belongs to the Client, which has exactly
// one call outstanding: the service may read it until it has answered.
type Request struct {
	Op Op
	// Dir is walked before Path: the client's namespace (Client.Prefix),
	// carried beside the path so that no request has to join the two.
	Dir      string
	Path     string
	Create   bool
	Truncate bool
	FD       int
	Off      uint64
}

// Reply is the one reply record. The service keeps one per session and
// answers every request of that session with a pointer to it, so it stays
// valid until the session's next request arrives — which the client sends
// only after copying out what it needs.
type Reply struct {
	Err   core.Errno
	FD    int    // OpOpen
	Size  uint64 // OpOpen, OpStat
	IsDir bool   // OpStat
	// Off and Len are the granted range of an OpRange (start within the
	// file, length).
	Off, Len uint64
	// Entries is the OpReaddir listing, the client's to keep: no other
	// answer ever reuses its slots (FS.listing).
	Entries []string
}

// --- filesystem state ------------------------------------------------------

type node interface{ isNode() }

type fileNode struct {
	id      uint64
	size    uint64
	extents []uint64 // image offsets, one per extent
	hot     bool     // extent table loaded (first open paid for it)
}

func (*dirNode) isNode()  {}
func (*fileNode) isNode() {}

type session struct {
	// files are the open descriptors: files[fd-1], nil when free. A closed
	// descriptor is the next one handed out, so the table stays as small
	// as the most files the client ever had open. It starts in the record
	// (first), which covers the files an application keeps open at once.
	files []*fileNode
	first [firstFDs]*fileNode
	// rep answers the session's one outstanding request (see Reply).
	rep Reply
}

// open enters f into the lowest free descriptor.
func (s *session) open(f *fileNode) int {
	for i, of := range s.files {
		if of == nil {
			s.files[i] = f
			return i + 1
		}
	}
	s.files = append(s.files, f)
	return len(s.files)
}

// file returns the file open at fd, nil if there is none.
func (s *session) file(fd int) *fileNode {
	if fd < 1 || fd > len(s.files) {
		return nil
	}
	return s.files[fd-1]
}

// Block sizes of an FS's records where nothing tells it better (Reserve
// does for the preloaded image), and how many descriptors a session holds
// before its table moves out of the record.
const (
	sessionBlock = 4
	fileBlock    = 8
	extentBlock  = 32
	firstFDs     = 4
)

// FS is one filesystem service instance.
type FS struct {
	cfg      Config
	v        *core.VPE
	root     dirNode
	rootSel  cap.Selector
	nextOff  uint64
	nextFile uint64
	// sessions holds the session of ident i (idents count up from 1) at
	// sessions[i-1] for the FS's life, the first ones in firstSessions.
	sessions      []*session
	firstSessions [2 * sessionBlock]*session
	// extCaps holds the service-owned capability derived for each extent
	// of the image, by image offset / ExtentBytes (an extent belongs to one
	// file for good: the image is a bump allocator), NoSel where none is.
	// It is made, at the image's size, by the first derive: many services
	// of a run never derive one.
	extCaps []cap.Selector
	stats   Stats
	// The FS's sessions, files and directories come from blocks it owns,
	// and so do the runs of records their lists and its readdir listings
	// are (extents, ents, names). Reserve and ReserveDirs size a block for
	// the preloaded image.
	sessRecs sim.Blocks[session]
	fileRecs sim.Blocks[fileNode]
	dirRecs  sim.Blocks[dirNode]
	extents  sim.Blocks[uint64]
	ents     sim.Blocks[dirent]
	names    sim.Blocks[string]
}

// NewFS creates an (unstarted) filesystem instance for the given service
// VPE. Preload the image with MustCreate/MustMkdirAllIn, then call Start.
func NewFS(cfg Config, v *core.VPE) *FS {
	cfg = cfg.withDefaults()
	fs := &FS{cfg: cfg, v: v}
	fs.sessions = fs.firstSessions[:0]
	return fs
}

// Stats returns a snapshot of the instance's counters.
func (fs *FS) Stats() Stats { return fs.stats }

// Name returns the registered service name.
func (fs *FS) Name() string { return fs.cfg.ServiceName }

// Program returns a core.Program that runs a filesystem service: allocate
// the image, optionally preload it, register, and serve forever. ready (if
// non-nil) is completed with the FS once the service is registered.
func Program(cfg Config, preload func(*FS), ready *sim.Future[*FS]) core.Program {
	return func(v *core.VPE, p *sim.Proc) {
		fs := NewFS(cfg, v)
		if preload != nil {
			preload(fs)
		}
		var onReady func(*FS)
		if ready != nil {
			onReady = ready.Complete
		}
		fs.Serve(p, onReady)
	}
}

// Serve starts the service (Start), hands the FS to ready, if non-nil, once
// it is registered, and serves forever. It panics if the start fails.
func (fs *FS) Serve(p *sim.Proc, ready func(*FS)) {
	if err := fs.Start(p); err != nil {
		panic(fmt.Sprintf("m3fs: start failed: %v", err))
	}
	if ready != nil {
		ready(fs)
	}
	fs.v.ServeLoop(p)
}

// Start allocates the image memory and registers the service.
func (fs *FS) Start(p *sim.Proc) error {
	sel, err := fs.v.AllocMem(p, fs.cfg.ImageBytes, dtu.PermRW)
	if err != nil {
		return err
	}
	fs.rootSel = sel
	return fs.v.RegisterService(p, fs.cfg.ServiceName, fs)
}

// --- path handling ---------------------------------------------------------

// nextPart splits off the first component of a slash-separated path, skipping
// empty components. part is "" once the path is exhausted. Paths are walked
// on every request, so this avoids building a []string per walk.
func nextPart(path string) (part, rest string) {
	for len(path) > 0 && path[0] == '/' {
		path = path[1:]
	}
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i], path[i+1:]
	}
	return path, ""
}

// nextPart2 is nextPart over dir followed by path, as if the two had been
// joined with a slash.
func nextPart2(dir, path string) (part, restDir, restPath string) {
	if part, restDir = nextPart(dir); part != "" {
		return part, restDir, path
	}
	part, restPath = nextPart(path)
	return part, "", restPath
}

// walk resolves dir/path to its parent directory and final name.
func (fs *FS) walk(dir, path string) (parent *dirNode, name string, n node) {
	name, dir, path = nextPart2(dir, path)
	if name == "" {
		return nil, "", &fs.root
	}
	d := &fs.root
	for {
		next, restDir, restPath := nextPart2(dir, path)
		if next == "" {
			return d, name, d.lookup(name)
		}
		sub, ok := d.lookup(name).(*dirNode)
		if !ok {
			return nil, "", nil
		}
		d, name, dir, path = sub, next, restDir, restPath
	}
}

// --- boot-time image construction -------------------------------------------

// Reserve makes room for the next files preloaded files, which hold extents
// extents in all (see ExtentsFor): their records and extent lists then come
// from one allocation each instead of one per file.
func (fs *FS) Reserve(files, extents int) {
	fs.fileRecs.Use(make([]fileNode, files))
	fs.extents.Use(make([]uint64, extents))
}

// MustMkdirAllIn creates directory dir/path in the image (boot time; no
// simulated cost), walking the two as a request does rather than joining
// them. A directory it creates last is made with room for entries entries.
func (fs *FS) MustMkdirAllIn(dir, path string, entries int) {
	d := &fs.root
	part, restDir, restPath := nextPart2(dir, path)
	for part != "" {
		var next string
		next, restDir, restPath = nextPart2(restDir, restPath)
		n := d.lookup(part)
		if n == nil {
			hint := 0
			if next == "" {
				hint = entries
			}
			n = fs.newDir(hint)
			fs.link(d, part, n)
		}
		var ok bool
		if d, ok = n.(*dirNode); !ok {
			panic("m3fs: path component is a file: " + joinPath(dir, path))
		}
		part = next
	}
}

// MustCreate creates a file of the given size in the image (boot time).
func (fs *FS) MustCreate(path string, size uint64) { fs.MustCreateIn("", path, size) }

// MustCreateIn creates file dir/path of the given size in the image,
// walking the two as a request does rather than joining them.
func (fs *FS) MustCreateIn(dir, path string, size uint64) {
	parent, name, existing := fs.walk(dir, path)
	if parent == nil {
		panic("m3fs: missing parent directory: " + joinPath(dir, path))
	}
	if existing != nil {
		panic("m3fs: file exists: " + joinPath(dir, path))
	}
	f := fs.newFile()
	if err := fs.grow(f, size); err != nil {
		panic("m3fs: image full while preloading " + joinPath(dir, path))
	}
	fs.link(parent, name, f)
}

// joinPath is dir/path, for messages.
func joinPath(dir, path string) string {
	if dir == "" {
		return path
	}
	return dir + "/" + path
}

// newFile returns the record of a new, empty file.
func (fs *FS) newFile() *fileNode {
	f := fs.fileRecs.New(fileBlock)
	f.id = fs.nextFile
	fs.nextFile++
	return f
}

// --- service handlers (core.ServiceHandlers) ----------------------------------

// Open starts a session.
func (fs *FS) Open(p *sim.Proc, clientVPE int, args any) core.SvcResult {
	p.Charge(sessionCycles)
	sess := fs.sessRecs.New(sessionBlock)
	sess.files = sess.first[:0]
	fs.sessions = append(fs.sessions, sess)
	return core.SvcResult{Ident: uint64(len(fs.sessions))}
}

// session returns the session of ident, nil if there is none.
func (fs *FS) session(ident uint64) *session {
	if ident == 0 || ident > uint64(len(fs.sessions)) {
		return nil
	}
	return fs.sessions[ident-1]
}

// Obtain hands out the memory capability of one extent of an open file.
func (fs *FS) Obtain(p *sim.Proc, ident uint64, args any) core.SvcResult {
	sess := fs.session(ident)
	if sess == nil {
		return core.SvcResult{Errno: core.ErrBadArgs}
	}
	req, ok := args.(*Request)
	if !ok || req.Op != OpRange {
		return core.SvcResult{Errno: core.ErrBadArgs}
	}
	f := sess.file(req.FD)
	if f == nil {
		return core.SvcResult{Errno: core.ErrBadArgs}
	}
	idx := int(req.Off / ExtentBytes)
	if idx >= len(f.extents) {
		return core.SvcResult{Errno: core.ErrBadArgs}
	}
	sel, err := fs.extentCap(p, f, idx)
	if err != nil {
		return core.SvcResult{Errno: core.ErrOutOfMem}
	}
	fs.stats.RangeObtains++
	// The capability covers the whole extent: a client appending past it is
	// "provided with an additional memory capability to the next range"
	// (paper §5.3.1), not with overlapping re-grants of the same extent.
	sess.rep = Reply{Off: uint64(idx) * ExtentBytes, Len: ExtentBytes}
	return core.SvcResult{SrcSel: sel, Reply: &sess.rep}
}

// extentCap returns (deriving and caching on first use) the service-owned
// memory capability for one extent of a file.
func (fs *FS) extentCap(p *sim.Proc, f *fileNode, idx int) (cap.Selector, error) {
	if idx >= len(f.extents) {
		return cap.NoSel, core.ErrBadArgs
	}
	if fs.extCaps == nil {
		fs.extCaps = make([]cap.Selector, fs.cfg.ImageBytes/ExtentBytes)
	}
	slot := &fs.extCaps[f.extents[idx]/ExtentBytes]
	if *slot != cap.NoSel {
		return *slot, nil
	}
	sel, err := fs.v.DeriveMem(p, fs.rootSel, f.extents[idx], ExtentBytes, dtu.PermRW)
	if err != nil {
		return cap.NoSel, err
	}
	fs.stats.ExtentsDerived++
	*slot = sel
	return sel, nil
}

// Delegate refuses: m3fs takes no capabilities from its clients.
func (fs *FS) Delegate(*sim.Proc, uint64, any, cap.Object) core.SvcResult {
	return core.SvcResult{Errno: core.ErrDenied}
}

// Request answers one data-plane request in the session's reply record.
func (fs *FS) Request(p *sim.Proc, ident uint64, args any) any {
	sess := fs.session(ident)
	req, ok := args.(*Request)
	if sess == nil || !ok {
		return &Reply{Err: core.ErrBadArgs}
	}
	rep := &sess.rep
	*rep = Reply{}
	switch req.Op {
	case OpOpen:
		fs.doOpen(p, sess, req, rep)
	case OpStat:
		fs.doStat(p, req, rep)
	case OpMkdir:
		rep.Err = fs.doMkdir(p, req)
	case OpUnlink:
		rep.Err = fs.doUnlink(p, req)
	case OpReaddir:
		fs.doReaddir(p, req, rep)
	case OpExtend:
		rep.Err = fs.doExtend(p, sess, req)
	case OpClose:
		fs.stats.Closes++
		if sess.file(req.FD) != nil {
			sess.files[req.FD-1] = nil
		}
	default:
		rep.Err = core.ErrBadArgs
	}
	return rep
}

func (fs *FS) doOpen(p *sim.Proc, sess *session, req *Request, rep *Reply) {
	fs.stats.Opens++
	p.Charge(pathWalkCycles)
	parent, name, n := fs.walk(req.Dir, req.Path)
	f, isFile := n.(*fileNode)
	switch {
	case n == nil && req.Create:
		if parent == nil {
			rep.Err = core.ErrBadArgs
			return
		}
		f = fs.newFile()
		fs.link(parent, name, f)
	case n == nil:
		rep.Err = core.ErrNoSuchCap
		return
	case !isFile:
		rep.Err = core.ErrBadArgs
		return
	}
	if req.Truncate && f.size > 0 {
		fs.truncate(p, f)
	}
	if !f.hot {
		// First open: load the extent table.
		p.Charge(extentCycles * sim.Duration(len(f.extents)))
		f.hot = true
	}
	rep.FD, rep.Size = sess.open(f), f.size
}

// truncate discards file content; capabilities handed out for its extents
// are revoked (the copy-on-write/consistency discipline §3 motivates).
func (fs *FS) truncate(p *sim.Proc, f *fileNode) {
	fs.revokeExtents(p, f)
	f.size = 0
	// Extents stay allocated (image is a simple bump allocator) but are
	// reused by the file as it grows again.
}

// revokeExtents revokes every capability derived for f's extents.
func (fs *FS) revokeExtents(p *sim.Proc, f *fileNode) {
	if fs.extCaps == nil {
		return // nothing derived yet
	}
	for _, off := range f.extents {
		if slot := &fs.extCaps[off/ExtentBytes]; *slot != cap.NoSel {
			// The extent is forgotten either way; a revoke that fails found
			// its capability gone already.
			_ = fs.v.Revoke(p, *slot)
			*slot = cap.NoSel
		}
	}
}

func (fs *FS) doStat(p *sim.Proc, req *Request, rep *Reply) {
	p.Charge(pathWalkCycles)
	_, _, n := fs.walk(req.Dir, req.Path)
	switch t := n.(type) {
	case *fileNode:
		rep.Size = t.size
	case *dirNode:
		rep.IsDir = true
	default:
		rep.Err = core.ErrNoSuchCap
	}
}

func (fs *FS) doMkdir(p *sim.Proc, req *Request) core.Errno {
	p.Charge(pathWalkCycles)
	parent, name, n := fs.walk(req.Dir, req.Path)
	if parent == nil {
		return core.ErrBadArgs
	}
	if n != nil {
		return core.ErrExists
	}
	fs.link(parent, name, fs.newDir(0))
	return core.OK
}

func (fs *FS) doUnlink(p *sim.Proc, req *Request) core.Errno {
	p.Charge(pathWalkCycles)
	parent, name, n := fs.walk(req.Dir, req.Path)
	f, ok := n.(*fileNode)
	if !ok {
		return core.ErrNoSuchCap
	}
	fs.revokeExtents(p, f)
	parent.unlink(name)
	return core.OK
}

func (fs *FS) doReaddir(p *sim.Proc, req *Request, rep *Reply) {
	p.Charge(pathWalkCycles)
	_, _, n := fs.walk(req.Dir, req.Path)
	d, ok := n.(*dirNode)
	if !ok {
		rep.Err = core.ErrNoSuchCap
		return
	}
	rep.Entries = fs.listing(d)
}

func (fs *FS) doExtend(p *sim.Proc, sess *session, req *Request) core.Errno {
	f := sess.file(req.FD)
	if f == nil {
		return core.ErrBadArgs
	}
	before := len(f.extents)
	if err := fs.grow(f, req.Off); err != nil {
		return core.ErrOutOfMem
	}
	p.Charge(extentCycles * sim.Duration(len(f.extents)-before))
	return core.OK
}
