package m3fs

import (
	"fmt"
	"strings"
)

// Listing describes the image for comparisons: one line per directory and
// per file — path, id, size and extent offsets — in readdir order, depth
// first, then the bump allocator's position and the next file id.
func (fs *FS) Listing() string {
	var b strings.Builder
	var list func(path string, d *dirNode)
	list = func(path string, d *dirNode) {
		for _, e := range d.ents {
			switch n := e.n.(type) {
			case *dirNode:
				fmt.Fprintf(&b, "dir  %s/%s\n", path, e.name)
				list(path+"/"+e.name, n)
			case *fileNode:
				fmt.Fprintf(&b, "file %s/%s id=%d size=%d extents=%v\n", path, e.name, n.id, n.size, n.extents)
			}
		}
	}
	list("", &fs.root)
	fmt.Fprintf(&b, "nextOff=%d nextFile=%d\n", fs.nextOff, fs.nextFile)
	return b.String()
}
