package m3fs

// Directories and their readdir listings. Like extents.go, this code sits
// apart from m3fs.go, whose import of package cap hides the builtin cap.

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

// Block sizes of the directory records, entries and listings where nothing
// tells the FS better (ReserveDirs does for the preloaded image).
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
		d.ents = append(fs.ents.Take(max(1, 2*cap(d.ents)), entryBlock)[:0], d.ents...)
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
	fs.dirRecs.Use(make([]dirNode, dirs))
	fs.ents.Use(make([]dirent, top+entries))
	if free := cap(fs.root.ents) - len(fs.root.ents); free < top {
		fs.root.ents = append(fs.ents.Take(len(fs.root.ents)+top, entryBlock)[:0], fs.root.ents...)
	}
}

// newDir returns a new, empty directory with room for entries entries.
func (fs *FS) newDir(entries int) *dirNode {
	d := fs.dirRecs.New(dirBlock)
	d.ents = fs.ents.Take(entries, entryBlock)[:0]
	return d
}

// listing returns the names in d, in order. Blocks never hand a record out
// twice, so a listing is the caller's to keep whatever the FS does next.
func (fs *FS) listing(d *dirNode) []string {
	l := fs.names.Take(len(d.ents), listBlock)
	for i, e := range d.ents {
		l[i] = e.name
	}
	return l
}
