package m3fs

// A file's extents. This code sits apart from m3fs.go, whose import of
// package cap hides the builtin cap.

import "repro/internal/core"

// ExtentsFor returns how many extents a file of size bytes occupies.
func (fs *FS) ExtentsFor(size uint64) int {
	return int((size + ExtentBytes - 1) / ExtentBytes)
}

// grow extends a file to newSize, allocating extents from the image. A list
// without room for them is copied out into one with twice its room.
func (fs *FS) grow(f *fileNode, newSize uint64) error {
	need := fs.ExtentsFor(newSize)
	if need > cap(f.extents) {
		f.extents = append(fs.extents.Take(max(need, 2*cap(f.extents)), extentBlock)[:0], f.extents...)
	}
	for len(f.extents) < need {
		if fs.nextOff+ExtentBytes > fs.cfg.ImageBytes {
			return core.ErrOutOfMem
		}
		f.extents = append(f.extents, fs.nextOff)
		fs.nextOff += ExtentBytes
	}
	if newSize > f.size {
		f.size = newSize
	}
	return nil
}
