package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"lfs/internal/layout"
)

// must fails the test on a non-nil error.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// dirIno resolves a directory path to its inode number.
func dirIno(t *testing.T, fs *FS, path string) layout.Ino {
	t.Helper()
	fi, err := fs.Stat(path)
	must(t, err)
	return fi.Ino
}

// fillDir creates n files f000000.. under dir.
func fillDir(t testing.TB, fs *FS, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		must(t, fs.Create(fmt.Sprintf("%s/f%06d", dir, i)))
	}
}

// TestUnlinkForgetsReadAheadPosition: a file created on a reused inode
// number must not inherit the unlinked file's last-read block, which
// made its first read at old+1 look sequential and read ahead.
func TestUnlinkForgetsReadAheadPosition(t *testing.T) {
	fs := newTestFS(t, 64<<20, smallConfig())
	bs := fs.cfg.BlockSize
	const k = 3
	must(t, fs.Create("/old"))
	must(t, fs.Write("/old", 0, make([]byte, (k+1)*bs)))
	old := dirIno(t, fs, "/old")
	buf := make([]byte, bs)
	for lbn := 0; lbn <= k; lbn++ {
		_, err := fs.Read("/old", int64(lbn*bs), buf)
		must(t, err)
	}
	must(t, fs.Remove("/old"))

	must(t, fs.Create("/new"))
	if got := dirIno(t, fs, "/new"); got != old {
		t.Fatalf("new file got inode %d, expected the freed %d to be reused", got, old)
	}
	must(t, fs.Write("/new", 0, make([]byte, 4*k*bs)))
	must(t, fs.Sync())
	fs.DropCaches()
	dirIno(t, fs, "/new") // the inode back in core: the read below fetches file blocks only
	before := fs.d.Stats()
	_, err := fs.Read("/new", int64((k+1)*bs), buf)
	must(t, err)
	if got := fs.d.Stats().Sub(before); got.Reads != 1 || got.BytesRead() != int64(bs) {
		t.Fatalf("first read of a new file at block %d: %d requests of %d bytes, want one of one block: it inherited the unlinked file's position",
			k+1, got.Reads, got.BytesRead())
	}
}

// TestDirectoryHoleIsReported: a directory whose middle block pointer is
// lost is not listed, checked, emptied or removed as if the block's
// entries had never existed — every walk reports the hole. (ffs has the
// twin of this test; the walks are vfs.Dirs under both.)
func TestDirectoryHoleIsReported(t *testing.T) {
	fs := newTestFS(t, 64<<20, smallConfig())
	must(t, fs.Mkdir("/d"))
	fillDir(t, fs, "/d", 700) // three 4 KB blocks of 314, 314 and 72 names
	must(t, fs.Sync())
	d := dirIno(t, fs, "/d")
	in, err := fs.getInode(d)
	must(t, err)
	if blocks := layout.BlocksForSize(in.Size, fs.cfg.BlockSize); blocks != 3 {
		t.Fatalf("/d has %d blocks, want 3", blocks)
	}
	in.Direct[1] = layout.NilAddr
	fs.bc.Remove(dataKey(d, 1))

	hole := fmt.Sprintf("directory %d has a hole at block 1", d)
	wantHole := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), hole) {
			t.Errorf("%s: %v, want an error saying %q", what, err, hole)
		}
	}
	ents, err := fs.ReadDir("/d")
	wantHole(fmt.Sprintf("ReadDir (%d entries)", len(ents)), err)
	wantHole("Remove of a name in the lost block", fs.Remove("/d/f000400"))
	rep, err := fs.Check()
	must(t, err)
	if !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.Contains(p, hole) }) {
		t.Errorf("Check does not report the hole; problems: %q", rep.Problems)
	}
	// Even with every entry of the two remaining blocks gone, the
	// directory is not known to be empty.
	for i := 0; i < 700; i++ {
		if i < 314 || i >= 628 {
			must(t, fs.Remove(fmt.Sprintf("/d/f%06d", i)))
		}
	}
	wantHole("Remove of the directory", fs.Remove("/d"))
}
