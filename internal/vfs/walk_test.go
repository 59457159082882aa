package vfs_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"lfs/internal/layout"
	"lfs/internal/vfs"
)

func buildTree(t *testing.T) *vfs.Model {
	t.Helper()
	m := vfs.NewModel(nil)
	for _, dir := range []string{"/a", "/a/sub", "/b"} {
		if err := m.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string]int{"/top": 10, "/a/one": 20, "/a/sub/two": 30, "/b/three": 0}
	for p, size := range files {
		if err := m.Create(p); err != nil {
			t.Fatal(err)
		}
		if size > 0 {
			if err := m.Write(p, 0, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

func TestWalkOrder(t *testing.T) {
	m := buildTree(t)
	var visited []string
	err := vfs.Walk(m, "/", func(path string, fi vfs.FileInfo) error {
		visited = append(visited, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"/", "/a", "/a/one", "/a/sub", "/a/sub/two", "/b", "/b/three", "/top"}
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("walk order:\n got %v\nwant %v", visited, want)
	}
}

func TestWalkSubtree(t *testing.T) {
	m := buildTree(t)
	var visited []string
	if err := vfs.Walk(m, "/a", func(path string, fi vfs.FileInfo) error {
		visited = append(visited, path)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"/a", "/a/one", "/a/sub", "/a/sub/two"}
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("subtree walk = %v", visited)
	}
}

func TestWalkAbortsOnError(t *testing.T) {
	m := buildTree(t)
	boom := errors.New("stop")
	count := 0
	err := vfs.Walk(m, "/", func(path string, fi vfs.FileInfo) error {
		count++
		if count == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if count != 3 {
		t.Fatalf("visited %d after abort", count)
	}
}

func TestWalkMissingRoot(t *testing.T) {
	m := vfs.NewModel(nil)
	if err := vfs.Walk(m, "/nope", func(string, vfs.FileInfo) error { return nil }); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

// loopFS is buildTree's model with /a/sub/up resolving to /a, its
// grandparent: the cycle a directory entry makes when its inode number
// is damaged into an ancestor's.
type loopFS struct{ *vfs.Model }

func (l loopFS) resolve(p string) string {
	if rest, ok := strings.CutPrefix(p, "/a/sub/up"); ok {
		return "/a" + rest
	}
	return p
}

func (l loopFS) Stat(p string) (vfs.FileInfo, error) { return l.Model.Stat(l.resolve(p)) }

func (l loopFS) ReadDir(p string) ([]layout.DirEntry, error) { return l.Model.ReadDir(l.resolve(p)) }

func TestWalkStopsAtCycle(t *testing.T) {
	m := buildTree(t)
	if err := m.Mkdir("/a/sub/up"); err != nil {
		t.Fatal(err)
	}
	var visited []string
	err := vfs.Walk(loopFS{m}, "/", func(path string, fi vfs.FileInfo) error {
		visited = append(visited, path)
		return nil
	})
	var pe *vfs.PathError
	if !errors.Is(err, vfs.ErrCycle) || !errors.As(err, &pe) || pe.Op != "walk" || pe.Path != "/a/sub/up" {
		t.Fatalf("walk of a cycle = %v, want a walk PathError at /a/sub/up wrapping ErrCycle", err)
	}
	want := []string{"/", "/a", "/a/one", "/a/sub", "/a/sub/two"}
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("walk of a cycle visited %v, want %v", visited, want)
	}
	if _, _, _, err := vfs.TreeSize(loopFS{m}, "/"); !errors.Is(err, vfs.ErrCycle) {
		t.Fatalf("TreeSize of a cycle = %v, want ErrCycle", err)
	}
}

func TestTreeSize(t *testing.T) {
	m := buildTree(t)
	bytes, files, dirs, err := vfs.TreeSize(m, "/")
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 60 || files != 4 || dirs != 4 {
		t.Fatalf("TreeSize = %d bytes, %d files, %d dirs", bytes, files, dirs)
	}
}
