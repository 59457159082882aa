package vfs_test

import (
	"errors"
	"slices"
	"testing"

	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// fakeTree is a namespace handed to vfs.CheckTree as plain maps: inode
// 1 is the root, a directory holding /d (2) and /f (3); /d holds /d/g
// (4). Every file holds one block.
type fakeTree struct {
	inodes  map[layout.Ino]*layout.Inode
	entries map[layout.Ino][]layout.DirEntry
}

func newFakeTree() *fakeTree {
	tr := &fakeTree{inodes: map[layout.Ino]*layout.Inode{}, entries: map[layout.Ino][]layout.DirEntry{
		1: {{Ino: 2, Name: "d"}, {Ino: 3, Name: "f"}},
		2: {{Ino: 4, Name: "g"}},
	}}
	for ino, mode := range map[layout.Ino]layout.FileMode{1: layout.ModeDir, 2: layout.ModeDir, 3: layout.ModeFile, 4: layout.ModeFile} {
		in := layout.NewInode(ino, mode)
		in.Nlink = 1
		if !mode.IsDir() {
			in.Size = 100
			in.Direct[0] = layout.DiskAddr(ino * 8)
		}
		tr.inodes[ino] = &in
	}
	return tr
}

func (tr *fakeTree) check(t *testing.T) *vfs.CheckReport {
	t.Helper()
	rep := &vfs.CheckReport{}
	claimed := 0
	if _, err := vfs.CheckTree(rep, 4096, vfs.CheckHooks{
		Inode: func(ino layout.Ino) (*layout.Inode, error) {
			if in, ok := tr.inodes[ino]; ok {
				return in, nil
			}
			return nil, errors.New("no such inode")
		},
		Claim: func(in *layout.Inode) error {
			claimed++
			if !in.Direct[0].IsNil() {
				rep.Blocks++
			}
			return nil
		},
		Entries: func(dir *layout.Inode, visit func([]layout.DirEntry) error) error {
			// One entry at a time, as a file system reading a block per
			// entry would hand them over.
			for _, e := range tr.entries[dir.Ino] {
				if err := visit([]layout.DirEntry{e}); err != nil {
					return err
				}
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if claimed != rep.Files+rep.Dirs {
		t.Errorf("%d inodes claimed, %d files and %d directories reached: each must be claimed once", claimed, rep.Files, rep.Dirs)
	}
	return rep
}

// TestCheckTree holds the namespace half of both checkers to what it
// reports, each forgery on a fresh tree.
func TestCheckTree(t *testing.T) {
	rep := newFakeTree().check(t)
	if !rep.Ok() || rep.Files != 2 || rep.Dirs != 2 || rep.Blocks != 2 {
		t.Fatalf("clean tree: %d files, %d dirs, %d blocks, problems %q; want 2, 2, 2 and none", rep.Files, rep.Dirs, rep.Blocks, rep.Problems)
	}
	for _, tc := range []struct {
		name   string
		forge  func(tr *fakeTree)
		want   []string
		blocks int64
	}{
		{"cycle", func(tr *fakeTree) { tr.entries[2] = append(tr.entries[2], layout.DirEntry{Ino: 1, Name: "up"}) },
			[]string{"directory inode 1 reached twice (at /d/up)"}, 2},
		{"duplicate name", func(tr *fakeTree) { tr.entries[2] = append(tr.entries[2], layout.DirEntry{Ino: 3, Name: "g"}) },
			[]string{`/d: duplicate entry "g"`}, 2},
		{"hard link", func(tr *fakeTree) { tr.entries[2] = append(tr.entries[2], layout.DirEntry{Ino: 3, Name: "h"}) },
			[]string{"inode 3 has nlink 1 but 2 directory entries"}, 2},
		{"missing inode", func(tr *fakeTree) { delete(tr.inodes, 4) },
			[]string{"/d/g: no such inode"}, 1},
		{"indirect past the end", func(tr *fakeTree) { tr.inodes[3].Indirect = 99 },
			[]string{"/f: indirect block past the end of its 1 blocks"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newFakeTree()
			tc.forge(tr)
			rep := tr.check(t)
			if !slices.Equal(rep.Problems, tc.want) || rep.Blocks != tc.blocks {
				t.Fatalf("problems %q and %d blocks, want %q and %d", rep.Problems, rep.Blocks, tc.want, tc.blocks)
			}
		})
	}
}
