package m3fs

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// refDirs is the reference namespace of TestDirectoriesMatchMapReference:
// every path the image holds, cleaned ("a/b"), and whether it is a
// directory. The root ("") is a directory that is never in the map.
type refDirs map[string]bool

// clean joins path's non-empty components with single slashes.
func clean(path string) string {
	return strings.Join(strings.FieldsFunc(path, func(r rune) bool { return r == '/' }), "/")
}

// isDir reports whether the cleaned path names a directory.
func (r refDirs) isDir(path string) bool { return path == "" || r[path] }

// parent returns the cleaned path of path's directory.
func parent(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}

// The operations as FS answers them, on cleaned paths.

func (r refDirs) mkdir(path string) core.Errno {
	switch _, exists := r[path]; {
	case path == "" || !r.isDir(parent(path)):
		return core.ErrBadArgs
	case exists:
		return core.ErrExists
	}
	r[path] = true
	return core.OK
}

func (r refDirs) create(path string) core.Errno {
	switch isDir, exists := r[path]; {
	case path == "" || isDir || !r.isDir(parent(path)):
		return core.ErrBadArgs
	case !exists:
		r[path] = false
	}
	return core.OK
}

func (r refDirs) unlink(path string) core.Errno {
	if isDir, exists := r[path]; !exists || isDir {
		return core.ErrNoSuchCap
	}
	delete(r, path)
	return core.OK
}

func (r refDirs) stat(path string) (isDir bool, err core.Errno) {
	if isDir, exists := r[path]; exists || path == "" {
		return isDir || path == "", core.OK
	}
	return false, core.ErrNoSuchCap
}

func (r refDirs) readdir(path string) ([]string, core.Errno) {
	if !r.isDir(path) {
		return nil, core.ErrNoSuchCap
	}
	names := []string{}
	for p := range r {
		if parent(p) == path && p != "" {
			names = append(names, p[strings.LastIndexByte(p, '/')+1:])
		}
	}
	slices.Sort(names)
	return names, core.OK
}

// TestDirectoriesMatchMapReference drives a client through seeded random
// sequences of mkdir, create, unlink, stat and readdir, and the same
// sequences through a map of paths: every result, every error code and
// every listing must agree. The names are few, so that operations collide,
// and directories grow from empty and from the room a preload gave them,
// past it, and shrink again.
func TestDirectoriesMatchMapReference(t *testing.T) {
	names := []string{"b", "a", "ab", "c", "a0", "zz"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := refDirs{"pre": true, "pre/x": false}
		s, ready := startFS(t, 1, 2, func(fs *FS) {
			fs.Reserve(1, 0)
			fs.ReserveDirs(1, 1, 1)
			fs.MustMkdirAllIn("", "pre", 1)
			fs.MustCreateIn("pre", "x", 0)
		})
		ops := 0
		s.Spawn("app", func(v *core.VPE, p *sim.Proc) {
			ready.Wait(p)
			c, err := Dial(p, v, "m3fs")
			if err != nil {
				t.Error(err)
				return
			}
			randPath := func() string {
				parts := []string{"pre"}[:rng.Intn(2)]
				for n := rng.Intn(3) + 1; n > 0; n-- {
					parts = append(parts, names[rng.Intn(len(names))])
				}
				path := strings.Join(parts, "/")
				if rng.Intn(4) == 0 {
					path = "/" + path
				}
				return path
			}
			for ; ops < 400 && !t.Failed(); ops++ {
				path := randPath()
				if rng.Intn(20) == 0 {
					path = "/" // the root
				}
				cp := clean(path)
				switch op := rng.Intn(5); op {
				case 0:
					if got, want := c.Mkdir(p, path), ref.mkdir(cp).Err(); got != want {
						t.Errorf("seed %d op %d: mkdir %q = %v, want %v", seed, ops, path, got, want)
					}
				case 1:
					want := ref.create(cp).Err()
					f, got := c.Open(p, path, true, false)
					if got != want {
						t.Errorf("seed %d op %d: create %q = %v, want %v", seed, ops, path, got, want)
					}
					if f != nil {
						if err := f.Close(p, false); err != nil {
							t.Error(err)
						}
					}
				case 2:
					if got, want := c.Unlink(p, path), ref.unlink(cp).Err(); got != want {
						t.Errorf("seed %d op %d: unlink %q = %v, want %v", seed, ops, path, got, want)
					}
				case 3:
					st, got := c.Stat(p, path)
					isDir, want := ref.stat(cp)
					if got != want.Err() || st.IsDir != isDir || st.Size != 0 {
						t.Errorf("seed %d op %d: stat %q = %+v, %v; want dir %v, %v", seed, ops, path, st, got, isDir, want)
					}
				case 4:
					list, got := c.Readdir(p, path)
					want, errno := ref.readdir(cp)
					if got != errno.Err() || (errno == core.OK && !slices.Equal(list, want)) {
						t.Errorf("seed %d op %d: readdir %q = %v, %v; want %v, %v", seed, ops, path, list, got, want, errno)
					}
				}
			}
		})
		s.Run()
		if ops != 400 && !t.Failed() {
			t.Fatalf("seed %d: the client stopped after %d operations", seed, ops)
		}
	}
}
