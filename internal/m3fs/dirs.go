package m3fs

// Directories, and the arenas their records, entry lists and readdir
// listings come from. Like extents.go, this code sits apart from m3fs.go,
// whose import of package cap hides the builtin cap.

import (
	"slices"
	"strings"
)

// dirNode is a directory: its entries, sorted by name, so that a lookup is
// a binary search and a listing is the names in order.
type dirNode struct {
	ents []dirent
}

type dirent struct {
	name string
	n    node
}

// Block sizes of the directory records and of the arenas of entries and
// listings where nothing tells the FS better (ReserveDirs does for the
// preloaded image).
const (
	dirBlock   = 8
	entryBlock = 32
	listBlock  = 32
)

// find returns where name is in d, or where it would go, and whether it is
// there.
func (d *dirNode) find(name string) (int, bool) {
	return slices.BinarySearchFunc(d.ents, name, func(e dirent, name string) int {
		return strings.Compare(e.name, name)
	})
}

// lookup returns the entry called name, nil if there is none.
func (d *dirNode) lookup(name string) node {
	if i, ok := d.find(name); ok {
		return d.ents[i].n
	}
	return nil
}

// link enters n into d under a name d does not hold yet. An entry list
// without room for it is copied out into one with twice its room.
func (fs *FS) link(d *dirNode, name string, n node) {
	i, _ := d.find(name)
	if len(d.ents) == cap(d.ents) {
		d.ents = append(fs.entryList(max(1, 2*cap(d.ents))), d.ents...)
	}
	d.ents = slices.Insert(d.ents, i, dirent{name: name, n: n})
}

// unlink removes the entry called name from d, if there is one.
func (d *dirNode) unlink(name string) {
	if i, ok := d.find(name); ok {
		d.ents = slices.Delete(d.ents, i, i+1)
	}
}

// ReserveDirs makes room for the next dirs preloaded directories, whose
// entries number entries in all, and for top more entries in the root:
// their records and entry lists then come from one allocation each instead
// of one per directory.
func (fs *FS) ReserveDirs(top, dirs, entries int) {
	fs.reservedDirs = dirs
	fs.ents = make([]dirent, top+entries)
	if free := cap(fs.root.ents) - len(fs.root.ents); free < top {
		fs.root.ents = append(fs.entryList(len(fs.root.ents)+top), fs.root.ents...)
	}
}

// newDir returns a new, empty directory with room for entries entries. The
// directories ReserveDirs announced come from one block of their number,
// the rest dirBlock at a time.
func (fs *FS) newDir(entries int) *dirNode {
	block := dirBlock
	if fs.reservedDirs > 0 {
		block = fs.reservedDirs
		fs.reservedDirs--
	}
	d := fs.dirRecs.New(block)
	if entries > 0 {
		d.ents = fs.entryList(entries)
	}
	return d
}

// entryList returns an empty entry list with room for n entries, carved
// from the FS's entry arena; a new arena holds entryBlock entries, or n if
// that is more. A list is capped at its own room: the list after it in the
// arena is another directory's.
func (fs *FS) entryList(n int) []dirent {
	if len(fs.ents) < n {
		fs.ents = make([]dirent, max(n, entryBlock))
	}
	l := fs.ents[:0:n]
	fs.ents = fs.ents[n:]
	return l
}

// listing returns the names in d, in order, carved from the FS's listing
// arena: a new arena holds listBlock names, or as many as d has if that is
// more. The arena's slots are never handed out twice, so a listing is the
// caller's to keep whatever the FS does next.
func (fs *FS) listing(d *dirNode) []string {
	n := len(d.ents)
	if len(fs.names) < n {
		fs.names = make([]string, max(n, listBlock))
	}
	l := fs.names[:n:n]
	fs.names = fs.names[n:]
	for i, e := range d.ents {
		l[i] = e.name
	}
	return l
}
