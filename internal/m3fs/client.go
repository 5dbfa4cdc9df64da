package m3fs

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/sim"
)

// Client is an application's connection to one m3fs instance. It mirrors
// the M3 file API: metadata operations are data-plane IPC; file data is
// reached through memory capabilities obtained per extent.
//
// A Client belongs to one VPE and has one call outstanding at a time, which
// is what lets it send every request from one record of its own and read
// every answer out of the service's per-session record (Request, Reply).
type Client struct {
	v    *core.VPE
	sess *core.Session

	// Prefix, if set, is the directory every path this client names is
	// relative to (the per-instance namespace of the workloads). It travels
	// beside the path, so a caller need not join the two per operation.
	Prefix string

	req Request
	// files holds the handles by descriptor, files[fd-1]: the service hands
	// a closed descriptor out again, and its handle is reused with it. The
	// table starts in the record (first), like the service's, and so do the
	// handles: Connect gives own to handles, which hands it out before it
	// makes a block.
	files   []*File
	first   [firstFDs]*File
	own     [handleBlock]File
	handles sim.Blocks[File]
}

// Block sizes of a client's records: the handles of the files an
// application keeps open at once, and the range capabilities one file
// holds before its list moves out of the handle.
const (
	handleBlock = 2
	firstRanges = 4
)

// Dial connects a VPE to the named filesystem service.
func Dial(p *sim.Proc, v *core.VPE, service string) (*Client, error) {
	c := new(Client)
	if err := c.Connect(p, v, service); err != nil {
		return nil, err
	}
	return c, nil
}

// Connect is Dial into a zero Client the caller provides, such as one of a
// table of clients made at once.
func (c *Client) Connect(p *sim.Proc, v *core.VPE, service string) error {
	sess, err := v.CreateSession(p, service, nil)
	if err != nil {
		return fmt.Errorf("m3fs: dial %s: %w", service, err)
	}
	c.v, c.sess = v, sess
	c.files = c.first[:0]
	c.handles.Use(c.own[:])
	return nil
}

// Close closes the session (revoking the session capability).
func (c *Client) Close(p *sim.Proc) error { return c.sess.Close(p) }

// call performs the data-plane request in c.req. The reply is the
// service's record for this session: valid until the client's next call.
func (c *Client) call(p *sim.Proc) (*Reply, error) {
	c.req.Dir = c.Prefix
	rep, err := c.sess.Call(p, &c.req)
	if err != nil {
		return nil, err
	}
	return rep.(*Reply), nil
}

// status performs the request in c.req for its error code alone.
func (c *Client) status(p *sim.Proc) error {
	rep, err := c.call(p)
	if err != nil {
		return err
	}
	return rep.Err.Err()
}

// FileInfo is the metadata Stat returns.
type FileInfo struct {
	IsDir bool
	Size  uint64
}

// Stat returns metadata for a path.
func (c *Client) Stat(p *sim.Proc, path string) (FileInfo, error) {
	c.req = Request{Op: OpStat, Path: path}
	rep, err := c.call(p)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{IsDir: rep.IsDir, Size: rep.Size}, rep.Err.Err()
}

// Mkdir creates a directory.
func (c *Client) Mkdir(p *sim.Proc, path string) error {
	c.req = Request{Op: OpMkdir, Path: path}
	return c.status(p)
}

// Unlink removes a file; the service revokes all extent capabilities
// handed out for it.
func (c *Client) Unlink(p *sim.Proc, path string) error {
	c.req = Request{Op: OpUnlink, Path: path}
	return c.status(p)
}

// Readdir lists a directory. The entries are the caller's to keep.
func (c *Client) Readdir(p *sim.Proc, path string) ([]string, error) {
	c.req = Request{Op: OpReaddir, Path: path}
	rep, err := c.call(p)
	if err != nil {
		return nil, err
	}
	return rep.Entries, rep.Err.Err()
}

// File is an open file: it tracks the position and the memory capabilities
// obtained for the ranges touched so far. A handle is valid until its Close;
// the Open that is given the same descriptor again reuses the object.
type File struct {
	c    *Client
	fd   int
	open bool
	size uint64
	pos  uint64

	// ranges holds one obtained capability per touched extent, in obtain
	// order — the order Close revokes them in. It starts in the handle
	// (first).
	ranges []rangeCap
	first  [firstRanges]rangeCap
}

type rangeCap struct {
	sel      cap.Selector
	off, len uint64 // the granted range within the file
}

// Open opens a file, optionally creating or truncating it.
func (c *Client) Open(p *sim.Proc, path string, create, truncate bool) (*File, error) {
	c.req = Request{Op: OpOpen, Path: path, Create: create, Truncate: truncate}
	rep, err := c.call(p)
	if err != nil {
		return nil, err
	}
	if rep.Err != core.OK {
		return nil, rep.Err
	}
	for len(c.files) < rep.FD {
		c.files = append(c.files, nil)
	}
	f := c.files[rep.FD-1]
	if f == nil {
		f = c.handles.New(handleBlock)
		f.c, f.ranges = c, f.first[:0]
		c.files[rep.FD-1] = f
	}
	f.fd, f.open, f.size, f.pos, f.ranges = rep.FD, true, rep.Size, 0, f.ranges[:0]
	return f, nil
}

// Size returns the file size as of the last server interaction.
func (f *File) Size() uint64 { return f.size }

// Seek sets the file position.
func (f *File) Seek(pos uint64) { f.pos = pos }

// ensureRange obtains (once) the memory capability covering offset off.
func (f *File) ensureRange(p *sim.Proc, off uint64) (rangeCap, error) {
	for _, rc := range f.ranges {
		if off >= rc.off && off < rc.off+rc.len {
			return rc, nil
		}
	}
	c := f.c
	c.req = Request{Op: OpRange, FD: f.fd, Off: off}
	sel, reply, err := c.sess.Obtain(p, &c.req)
	if err != nil {
		return rangeCap{}, err
	}
	rep := reply.(*Reply)
	rc := rangeCap{sel: sel, off: rep.Off, len: rep.Len}
	f.ranges = append(f.ranges, rc)
	return rc, nil
}

// transfer models moving n bytes sequentially at the current position:
// obtaining memory capabilities for newly touched extents and charging the
// data-movement time. It returns the number of bytes moved.
func (f *File) transfer(p *sim.Proc, n uint64) (uint64, error) {
	left := n
	for left > 0 {
		rc, err := f.ensureRange(p, f.pos)
		if err != nil {
			return n - left, err
		}
		chunk := min(rc.off+rc.len-f.pos, left)
		f.c.v.Transfer(p, chunk)
		f.pos += chunk
		left -= chunk
	}
	return n, nil
}

// Read models reading n bytes sequentially from the current position. It
// returns the number of bytes read (less than n at end of file).
func (f *File) Read(p *sim.Proc, n uint64) (uint64, error) {
	if !f.open {
		return 0, core.ErrBadArgs
	}
	if f.pos >= f.size {
		return 0, nil
	}
	if f.pos+n > f.size {
		n = f.size - f.pos
	}
	return f.transfer(p, n)
}

// Write models writing n bytes sequentially at the current position,
// extending the file as needed.
func (f *File) Write(p *sim.Proc, n uint64) error {
	if !f.open {
		return core.ErrBadArgs
	}
	if f.pos+n > f.size {
		f.c.req = Request{Op: OpExtend, FD: f.fd, Off: f.pos + n}
		if err := f.c.status(p); err != nil {
			return err
		}
		f.size = f.pos + n
	}
	_, err := f.transfer(p, n)
	return err
}

// Close closes the file. With revoke=true the client revokes every range
// capability it obtained (the paper's "when the file is closed again, the
// memory capabilities are revoked"); with revoke=false the capabilities are
// left to bulk cleanup at VPE exit. The descriptor is closed whatever the
// revocations return; the first error is reported.
func (f *File) Close(p *sim.Proc, revoke bool) error {
	if !f.open {
		return core.ErrBadArgs
	}
	var first error
	if revoke {
		for _, rc := range f.ranges {
			if err := f.c.v.Revoke(p, rc.sel); err != nil && first == nil {
				first = err
			}
		}
	}
	f.open, f.ranges = false, f.ranges[:0]
	f.c.req = Request{Op: OpClose, FD: f.fd}
	if err := f.c.status(p); err != nil && first == nil {
		first = err
	}
	return first
}
