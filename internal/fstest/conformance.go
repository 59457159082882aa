// Package fstest provides a reusable conformance suite and a
// randomized model-equivalence harness for vfs.FileSystem
// implementations. The in-memory model, the FFS baseline, and the LFS
// storage manager all run the same battery, which is what makes the
// paper's "LFS supports the full UNIX file system semantics" claim
// testable here.
package fstest

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// Factory opens a fresh, empty file system for one subtest. The file
// system must be large enough for a few tens of megabytes of data.
type Factory func(t *testing.T) vfs.FileSystem

// RunConformance runs the full behavioural battery against the
// implementation produced by open: the single-path layer, then the
// cases that need Rename or Link to succeed.
func RunConformance(t *testing.T, open Factory) {
	t.Helper()
	RunSinglePathConformance(t, open)
	runCases(t, open, twoPathCases)
}

// RunSinglePathConformance runs the cases that need no Rename or Link
// to succeed: the layer a file system that refuses some renames and
// links (the shard router, across shards) is held to.
func RunSinglePathConformance(t *testing.T, open Factory) {
	t.Helper()
	runCases(t, open, singlePathCases)
}

type conformanceCase struct {
	name string
	fn   func(*testing.T, vfs.FileSystem)
}

var singlePathCases = []conformanceCase{
	{"CreateAndStat", testCreateAndStat},
	{"CreateDuplicate", testCreateDuplicate},
	{"CreateInMissingDir", testCreateInMissingDir},
	{"CreateUnderFile", testCreateUnderFile},
	{"MkdirNested", testMkdirNested},
	{"WriteReadRoundTrip", testWriteReadRoundTrip},
	{"WriteAtOffsets", testWriteAtOffsets},
	{"SparseHolesReadZero", testSparseHolesReadZero},
	{"ReadPastEOF", testReadPastEOF},
	{"ReadPartialAtEOF", testReadPartialAtEOF},
	{"OverwriteInPlace", testOverwriteInPlace},
	{"TruncateShrinkGrow", testTruncateShrinkGrow},
	{"TruncateToZeroAndReuse", testTruncateToZeroAndReuse},
	{"RemoveFile", testRemoveFile},
	{"RemoveMissing", testRemoveMissing},
	{"RemoveNonEmptyDir", testRemoveNonEmptyDir},
	{"RemoveEmptyDir", testRemoveEmptyDir},
	{"ReadDirOrdering", testReadDirOrdering},
	{"ReadDirOnFile", testReadDirOnFile},
	{"ManyFilesOneDir", testManyFilesOneDir},
	{"DeepPaths", testDeepPaths},
	{"FileOpsOnDir", testFileOpsOnDir},
	{"DirOpsOnFile", testDirOpsOnFile},
	{"InvalidPaths", testInvalidPaths},
	{"InvalidOffsets", testInvalidOffsets},
	{"StatRoot", testStatRoot},
	{"SyncIsIdempotent", testSyncIsIdempotent},
	{"UnmountRejectsFurtherOps", testUnmountRejectsFurtherOps},
	{"LargeFileThroughIndirects", testLargeFileThroughIndirects},
	{"ManySmallFilesChurn", testManySmallFilesChurn},
	{"InodeNumbersDistinct", testInodeNumbersDistinct},
	{"DirInodeReuseNoStaleNames", testDirInodeReuseNoStaleNames},
}

// twoPathCases need Rename or Link to succeed. HardLinkBasics is here
// too: a router passes it only if its two names happen to place on one
// shard.
var twoPathCases = []conformanceCase{
	{"Rename", testRename},
	{"RenameDirWithContents", testRenameDirWithContents},
	{"RenameErrors", testRenameErrors},
	{"RenameSwapNames", testRenameSwapNames},
	{"HardLinkBasics", testHardLinkBasics},
	{"HardLinkUnlinkOrder", testHardLinkUnlinkOrder},
	{"HardLinkErrors", testHardLinkErrors},
}

// runCases runs each case on a fresh file system.
func runCases(t *testing.T, open Factory, cases []conformanceCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, open(t))
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func wantErrIs(t *testing.T, err, sentinel error) {
	t.Helper()
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

func testCreateAndStat(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/a"))
	fi, err := fs.Stat("/a")
	must(t, err)
	if fi.IsDir() || fi.Size != 0 || !fi.Mode.IsRegular() {
		t.Fatalf("fresh file info = %+v", fi)
	}
	if fi.Nlink != 1 {
		t.Fatalf("Nlink = %d, want 1", fi.Nlink)
	}
}

func testCreateDuplicate(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/a"))
	wantErrIs(t, fs.Create("/a"), vfs.ErrExist)
	must(t, fs.Mkdir("/d"))
	wantErrIs(t, fs.Mkdir("/d"), vfs.ErrExist)
	wantErrIs(t, fs.Create("/d"), vfs.ErrExist)
	wantErrIs(t, fs.Mkdir("/a"), vfs.ErrExist)
}

func testCreateInMissingDir(t *testing.T, fs vfs.FileSystem) {
	wantErrIs(t, fs.Create("/no/file"), vfs.ErrNotExist)
	wantErrIs(t, fs.Mkdir("/no/dir"), vfs.ErrNotExist)
}

func testCreateUnderFile(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	err := fs.Create("/f/child")
	if !errors.Is(err, vfs.ErrNotDir) && !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("create under file: %v", err)
	}
}

func testMkdirNested(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/a"))
	must(t, fs.Mkdir("/a/b"))
	must(t, fs.Mkdir("/a/b/c"))
	fi, err := fs.Stat("/a/b/c")
	must(t, err)
	if !fi.IsDir() {
		t.Fatal("nested mkdir did not produce a directory")
	}
}

func testWriteReadRoundTrip(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	want := []byte("the quick brown fox jumps over the lazy dog")
	must(t, fs.Write("/f", 0, want))
	got := make([]byte, len(want))
	n, err := fs.Read("/f", 0, got)
	must(t, err)
	if n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes %q", n, got[:n])
	}
	fi, err := fs.Stat("/f")
	must(t, err)
	if fi.Size != int64(len(want)) {
		t.Fatalf("Size = %d, want %d", fi.Size, len(want))
	}
}

func testWriteAtOffsets(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	// Write three chunks out of order, spanning block boundaries.
	must(t, fs.Write("/f", 8000, []byte("CCC")))
	must(t, fs.Write("/f", 0, []byte("AAA")))
	must(t, fs.Write("/f", 4094, []byte("BBBB"))) // straddles a 4K boundary
	buf := make([]byte, 8003)
	n, err := fs.Read("/f", 0, buf)
	must(t, err)
	if n != 8003 {
		t.Fatalf("read %d bytes, want 8003", n)
	}
	if string(buf[0:3]) != "AAA" || string(buf[4094:4098]) != "BBBB" || string(buf[8000:8003]) != "CCC" {
		t.Fatal("offset writes misplaced")
	}
}

func testSparseHolesReadZero(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 100000, []byte("tail")))
	buf := make([]byte, 4096)
	n, err := fs.Read("/f", 40960, buf)
	must(t, err)
	if n != 4096 {
		t.Fatalf("hole read returned %d", n)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x", i, b)
		}
	}
}

func testReadPastEOF(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 0, []byte("xy")))
	n, err := fs.Read("/f", 2, make([]byte, 8))
	must(t, err)
	if n != 0 {
		t.Fatalf("read at EOF returned %d", n)
	}
	n, err = fs.Read("/f", 100, make([]byte, 8))
	must(t, err)
	if n != 0 {
		t.Fatalf("read past EOF returned %d", n)
	}
}

func testReadPartialAtEOF(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 0, []byte("hello")))
	buf := make([]byte, 10)
	n, err := fs.Read("/f", 3, buf)
	must(t, err)
	if n != 2 || string(buf[:n]) != "lo" {
		t.Fatalf("partial read = %d %q", n, buf[:n])
	}
}

func testOverwriteInPlace(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 0, bytes.Repeat([]byte{1}, 12000)))
	must(t, fs.Write("/f", 4000, bytes.Repeat([]byte{2}, 4000)))
	buf := make([]byte, 12000)
	n, err := fs.Read("/f", 0, buf)
	must(t, err)
	if n != 12000 {
		t.Fatalf("read %d", n)
	}
	for i := 0; i < 12000; i++ {
		want := byte(1)
		if i >= 4000 && i < 8000 {
			want = 2
		}
		if buf[i] != want {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], want)
		}
	}
	fi, _ := fs.Stat("/f")
	if fi.Size != 12000 {
		t.Fatalf("overwrite changed size to %d", fi.Size)
	}
}

func testTruncateShrinkGrow(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 0, bytes.Repeat([]byte{7}, 10000)))
	must(t, fs.Truncate("/f", 3000))
	fi, _ := fs.Stat("/f")
	if fi.Size != 3000 {
		t.Fatalf("shrunk size = %d", fi.Size)
	}
	must(t, fs.Truncate("/f", 6000))
	fi, _ = fs.Stat("/f")
	if fi.Size != 6000 {
		t.Fatalf("grown size = %d", fi.Size)
	}
	buf := make([]byte, 6000)
	n, err := fs.Read("/f", 0, buf)
	must(t, err)
	if n != 6000 {
		t.Fatalf("read %d", n)
	}
	for i := 0; i < 3000; i++ {
		if buf[i] != 7 {
			t.Fatalf("byte %d lost by truncate", i)
		}
	}
	for i := 3000; i < 6000; i++ {
		if buf[i] != 0 {
			t.Fatalf("regrown byte %d = %d, want 0", i, buf[i])
		}
	}
}

func testTruncateToZeroAndReuse(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 0, bytes.Repeat([]byte{9}, 50000)))
	must(t, fs.Truncate("/f", 0))
	fi, _ := fs.Stat("/f")
	if fi.Size != 0 {
		t.Fatalf("size after truncate 0 = %d", fi.Size)
	}
	must(t, fs.Write("/f", 0, []byte("fresh")))
	buf := make([]byte, 5)
	n, err := fs.Read("/f", 0, buf)
	must(t, err)
	if n != 5 || string(buf) != "fresh" {
		t.Fatalf("reuse read = %q", buf[:n])
	}
}

func testRemoveFile(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 0, []byte("data")))
	must(t, fs.Remove("/f"))
	_, err := fs.Stat("/f")
	wantErrIs(t, err, vfs.ErrNotExist)
	// The name is reusable.
	must(t, fs.Create("/f"))
	fi, err := fs.Stat("/f")
	must(t, err)
	if fi.Size != 0 {
		t.Fatalf("recreated file has size %d", fi.Size)
	}
}

func testRemoveMissing(t *testing.T, fs vfs.FileSystem) {
	wantErrIs(t, fs.Remove("/nope"), vfs.ErrNotExist)
	wantErrIs(t, fs.Remove("/no/deep/path"), vfs.ErrNotExist)
}

func testRemoveNonEmptyDir(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/d"))
	must(t, fs.Create("/d/f"))
	wantErrIs(t, fs.Remove("/d"), vfs.ErrNotEmpty)
	must(t, fs.Remove("/d/f"))
	must(t, fs.Remove("/d"))
}

func testRemoveEmptyDir(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/d"))
	must(t, fs.Remove("/d"))
	_, err := fs.Stat("/d")
	wantErrIs(t, err, vfs.ErrNotExist)
}

func testReadDirOrdering(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/d"))
	for _, name := range []string{"zebra", "alpha", "mike", "bravo"} {
		must(t, fs.Create("/d/"+name))
	}
	entries, err := fs.ReadDir("/d")
	must(t, err)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	if strings.Join(names, ",") != "alpha,bravo,mike,zebra" {
		t.Fatalf("ReadDir order = %v", names)
	}
}

func testReadDirOnFile(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	_, err := fs.ReadDir("/f")
	wantErrIs(t, err, vfs.ErrNotDir)
}

func testManyFilesOneDir(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/big"))
	const n = 600 // enough to need several directory blocks
	for i := 0; i < n; i++ {
		must(t, fs.Create(fmt.Sprintf("/big/file-%04d", i)))
	}
	entries, err := fs.ReadDir("/big")
	must(t, err)
	if len(entries) != n {
		t.Fatalf("ReadDir found %d entries, want %d", len(entries), n)
	}
	for i, e := range entries {
		if e.Name != fmt.Sprintf("file-%04d", i) {
			t.Fatalf("entry %d = %q", i, e.Name)
		}
	}
	// Remove every third file and re-list.
	for i := 0; i < n; i += 3 {
		must(t, fs.Remove(fmt.Sprintf("/big/file-%04d", i)))
	}
	entries, err = fs.ReadDir("/big")
	must(t, err)
	if len(entries) != n-n/3 {
		t.Fatalf("after removal: %d entries", len(entries))
	}
}

func testDeepPaths(t *testing.T, fs vfs.FileSystem) {
	path := ""
	for i := 0; i < 12; i++ {
		path += fmt.Sprintf("/dir%d", i)
		must(t, fs.Mkdir(path))
	}
	must(t, fs.Create(path+"/leaf"))
	must(t, fs.Write(path+"/leaf", 0, []byte("deep")))
	buf := make([]byte, 4)
	n, err := fs.Read(path+"/leaf", 0, buf)
	must(t, err)
	if n != 4 || string(buf) != "deep" {
		t.Fatalf("deep read = %q", buf[:n])
	}
}

func testRename(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/a"))
	must(t, fs.Write("/a", 0, []byte("payload")))
	must(t, fs.Mkdir("/d"))
	must(t, fs.Rename("/a", "/d/b"))
	_, err := fs.Stat("/a")
	wantErrIs(t, err, vfs.ErrNotExist)
	buf := make([]byte, 7)
	n, err := fs.Read("/d/b", 0, buf)
	must(t, err)
	if n != 7 || string(buf) != "payload" {
		t.Fatalf("renamed file content = %q", buf[:n])
	}
}

func testRenameDirWithContents(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/src"))
	must(t, fs.Create("/src/f"))
	must(t, fs.Write("/src/f", 0, []byte("x")))
	must(t, fs.Rename("/src", "/dst"))
	fi, err := fs.Stat("/dst/f")
	must(t, err)
	if fi.Size != 1 {
		t.Fatalf("moved child size = %d", fi.Size)
	}
}

func testRenameErrors(t *testing.T, fs vfs.FileSystem) {
	wantErrIs(t, fs.Rename("/missing", "/x"), vfs.ErrNotExist)
	must(t, fs.Create("/a"))
	must(t, fs.Create("/b"))
	wantErrIs(t, fs.Rename("/a", "/b"), vfs.ErrExist)
	wantErrIs(t, fs.Rename("/a", "/no/dir/x"), vfs.ErrNotExist)
	must(t, fs.Mkdir("/d"))
	wantErrIs(t, fs.Rename("/d", "/d/sub"), vfs.ErrInvalid)
	// A trailing slash names the same directory: it cannot hide a move
	// inside itself, which would leave the directory unreachable.
	wantErrIs(t, fs.Rename("/d/", "/d/sub"), vfs.ErrInvalid)
	must(t, fs.Mkdir("/n"))
	must(t, fs.Mkdir("/n/d"))
	must(t, fs.Mkdir("/n/d/e"))
	wantErrIs(t, fs.Rename("/n/d/", "/n/d/e/f"), vfs.ErrInvalid)
	for _, dir := range []string{"/d", "/n/d/e"} {
		_, err := fs.Stat(dir)
		must(t, err)
	}
}

func testFileOpsOnDir(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/d"))
	wantErrIs(t, fs.Write("/d", 0, []byte("x")), vfs.ErrIsDir)
	_, err := fs.Read("/d", 0, make([]byte, 1))
	wantErrIs(t, err, vfs.ErrIsDir)
	wantErrIs(t, fs.Truncate("/d", 0), vfs.ErrIsDir)
}

func testDirOpsOnFile(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	_, err := fs.Stat("/f/child")
	if !errors.Is(err, vfs.ErrNotDir) && !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("stat through file: %v", err)
	}
}

func testInvalidPaths(t *testing.T, fs vfs.FileSystem) {
	for _, p := range []string{"", "rel/path", "/a//b", "/a/./b", "/a/../b"} {
		if err := fs.Create(p); !errors.Is(err, vfs.ErrInvalid) {
			t.Errorf("Create(%q) = %v, want ErrInvalid", p, err)
		}
	}
	if err := fs.Create("/"); !errors.Is(err, vfs.ErrInvalid) {
		t.Errorf("Create(/) = %v, want ErrInvalid", fs.Create("/"))
	}
}

func testInvalidOffsets(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	wantErrIs(t, fs.Write("/f", -1, []byte("x")), vfs.ErrInvalid)
	_, err := fs.Read("/f", -1, make([]byte, 1))
	wantErrIs(t, err, vfs.ErrInvalid)
	wantErrIs(t, fs.Truncate("/f", -1), vfs.ErrInvalid)
}

func testStatRoot(t *testing.T, fs vfs.FileSystem) {
	fi, err := fs.Stat("/")
	must(t, err)
	if !fi.IsDir() {
		t.Fatal("root is not a directory")
	}
	entries, err := fs.ReadDir("/")
	must(t, err)
	if len(entries) != 0 {
		t.Fatalf("fresh root has %d entries", len(entries))
	}
}

func testSyncIsIdempotent(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 0, []byte("abc")))
	must(t, fs.Sync())
	must(t, fs.Sync())
	buf := make([]byte, 3)
	n, err := fs.Read("/f", 0, buf)
	must(t, err)
	if n != 3 || string(buf) != "abc" {
		t.Fatalf("post-sync read = %q", buf[:n])
	}
}

func testUnmountRejectsFurtherOps(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/f"))
	must(t, fs.Mkdir("/d"))
	must(t, fs.Unmount())
	buf := make([]byte, 1)
	_, readErr := fs.Read("/f", 0, buf)
	_, statErr := fs.Stat("/f")
	_, readDirErr := fs.ReadDir("/d")
	for _, c := range []struct {
		op  string
		err error
	}{
		{"Create", fs.Create("/g")},
		{"Mkdir", fs.Mkdir("/e")},
		{"Write", fs.Write("/f", 0, buf)},
		{"Read", readErr},
		{"Stat", statErr},
		{"ReadDir", readDirErr},
		{"Remove", fs.Remove("/f")},
		{"Rename", fs.Rename("/f", "/h")},
		{"Link", fs.Link("/f", "/h")},
		{"Truncate", fs.Truncate("/f", 0)},
		{"Sync", fs.Sync()},
		{"Unmount", fs.Unmount()},
	} {
		if !errors.Is(c.err, vfs.ErrUnmounted) {
			t.Errorf("%s after Unmount = %v, want ErrUnmounted", c.op, c.err)
		}
	}
}

func testLargeFileThroughIndirects(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/big"))
	// 2 MB is far beyond NDirect*4K = 48K, exercising single and
	// (for 4K blocks with 1024 addrs) staying within single
	// indirection; write a tail chunk past 4.2 MB to force double
	// indirection for 4K blocks.
	pattern := func(i int64) byte { return byte(i*7 + 3) }
	chunk := make([]byte, 64*1024)
	for off := int64(0); off < 2<<20; off += int64(len(chunk)) {
		for i := range chunk {
			chunk[i] = pattern(off + int64(i))
		}
		must(t, fs.Write("/big", off, chunk))
	}
	tailOff := int64(4<<20 + 300*1024)
	must(t, fs.Write("/big", tailOff, []byte("tail-marker")))

	buf := make([]byte, len(chunk))
	for _, off := range []int64{0, 1 << 20, 2<<20 - int64(len(chunk))} {
		n, err := fs.Read("/big", off, buf)
		must(t, err)
		if n != len(buf) {
			t.Fatalf("read %d at %d", n, off)
		}
		for i := 0; i < n; i += 997 {
			if buf[i] != pattern(off+int64(i)) {
				t.Fatalf("byte %d wrong at offset %d", i, off)
			}
		}
	}
	tail := make([]byte, 11)
	n, err := fs.Read("/big", tailOff, tail)
	must(t, err)
	if n != 11 || string(tail) != "tail-marker" {
		t.Fatalf("tail read = %q", tail[:n])
	}
}

func testManySmallFilesChurn(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/work"))
	payload := bytes.Repeat([]byte{0xA5}, 1024)
	// Three generations of create/delete, the paper's short-lifetime
	// workload in miniature.
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 120; i++ {
			p := fmt.Sprintf("/work/g%d-%03d", gen, i)
			must(t, fs.Create(p))
			must(t, fs.Write(p, 0, payload))
		}
		if gen > 0 {
			for i := 0; i < 120; i++ {
				must(t, fs.Remove(fmt.Sprintf("/work/g%d-%03d", gen-1, i)))
			}
		}
	}
	entries, err := fs.ReadDir("/work")
	must(t, err)
	if len(entries) != 120 {
		t.Fatalf("%d entries after churn, want 120 (only the last generation survives)", len(entries))
	}
	buf := make([]byte, 1024)
	n, err := fs.Read("/work/g2-077", 0, buf)
	must(t, err)
	if n != 1024 || !bytes.Equal(buf, payload) {
		t.Fatal("survivor content corrupted by churn")
	}
}

// testDirInodeReuseNoStaleNames guards name-cache implementations: a
// removed directory's inode number may be reused by a new directory,
// which must not inherit the old directory's names.
func testDirInodeReuseNoStaleNames(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/old"))
	must(t, fs.Create("/old/ghost"))
	must(t, fs.Remove("/old/ghost"))
	must(t, fs.Remove("/old"))
	// The new directory very likely reuses /old's inode number.
	must(t, fs.Mkdir("/new"))
	_, err := fs.Stat("/new/ghost")
	wantErrIs(t, err, vfs.ErrNotExist)
	entries, err := fs.ReadDir("/new")
	must(t, err)
	if len(entries) != 0 {
		t.Fatalf("fresh directory lists %d stale entries", len(entries))
	}
	// And names created under the old incarnation's path don't
	// leak either.
	must(t, fs.Create("/new/real"))
	if _, err := fs.Stat("/new/real"); err != nil {
		t.Fatal(err)
	}
}

// testRenameSwapNames exercises name-cache invalidation across
// renames within and across directories.
func testRenameSwapNames(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/a"))
	must(t, fs.Mkdir("/b"))
	must(t, fs.Create("/a/x"))
	must(t, fs.Write("/a/x", 0, []byte("one")))
	must(t, fs.Rename("/a/x", "/b/y"))
	must(t, fs.Create("/a/x")) // recreate the old name
	must(t, fs.Write("/a/x", 0, []byte("two")))
	buf := make([]byte, 3)
	n, err := fs.Read("/b/y", 0, buf)
	must(t, err)
	if string(buf[:n]) != "one" {
		t.Fatalf("/b/y reads %q", buf[:n])
	}
	n, err = fs.Read("/a/x", 0, buf)
	must(t, err)
	if string(buf[:n]) != "two" {
		t.Fatalf("recreated /a/x reads %q", buf[:n])
	}
	// Rename back over the chain.
	must(t, fs.Rename("/b/y", "/b/z"))
	if _, err := fs.Stat("/b/y"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("/b/y still visible after second rename: %v", err)
	}
}

// testHardLinkBasics: a link shares the inode and the data; writes
// through one name are visible through the other.
func testHardLinkBasics(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/orig"))
	must(t, fs.Write("/orig", 0, []byte("shared")))
	must(t, fs.Mkdir("/d"))
	must(t, fs.Link("/orig", "/d/alias"))
	fiA, err := fs.Stat("/orig")
	must(t, err)
	fiB, err := fs.Stat("/d/alias")
	must(t, err)
	if fiA.Ino != fiB.Ino {
		t.Fatalf("link has ino %d, original %d", fiB.Ino, fiA.Ino)
	}
	if fiA.Nlink != 2 || fiB.Nlink != 2 {
		t.Fatalf("nlink = %d/%d, want 2/2", fiA.Nlink, fiB.Nlink)
	}
	buf := make([]byte, 6)
	n, err := fs.Read("/d/alias", 0, buf)
	must(t, err)
	if string(buf[:n]) != "shared" {
		t.Fatalf("alias reads %q", buf[:n])
	}
	// A write through the alias is visible through the original.
	must(t, fs.Write("/d/alias", 0, []byte("SHARED")))
	n, err = fs.Read("/orig", 0, buf)
	must(t, err)
	if string(buf[:n]) != "SHARED" {
		t.Fatalf("original reads %q after alias write", buf[:n])
	}
}

// testHardLinkUnlinkOrder: data survives until the last name goes.
func testHardLinkUnlinkOrder(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Create("/a"))
	must(t, fs.Write("/a", 0, []byte("payload")))
	must(t, fs.Link("/a", "/b"))
	must(t, fs.Remove("/a"))
	fi, err := fs.Stat("/b")
	must(t, err)
	if fi.Nlink != 1 {
		t.Fatalf("nlink after first unlink = %d, want 1", fi.Nlink)
	}
	buf := make([]byte, 7)
	n, err := fs.Read("/b", 0, buf)
	must(t, err)
	if string(buf[:n]) != "payload" {
		t.Fatalf("survivor reads %q", buf[:n])
	}
	must(t, fs.Remove("/b"))
	_, err = fs.Stat("/b")
	wantErrIs(t, err, vfs.ErrNotExist)
	// The space is reusable afterwards.
	must(t, fs.Create("/c"))
	must(t, fs.Write("/c", 0, []byte("fresh")))
}

// testHardLinkErrors: directories cannot be linked; existing targets
// and missing sources fail.
func testHardLinkErrors(t *testing.T, fs vfs.FileSystem) {
	must(t, fs.Mkdir("/dir"))
	err := fs.Link("/dir", "/dirlink")
	wantErrIs(t, err, vfs.ErrIsDir)
	wantErrIs(t, fs.Link("/missing", "/x"), vfs.ErrNotExist)
	must(t, fs.Create("/f"))
	must(t, fs.Create("/g"))
	wantErrIs(t, fs.Link("/f", "/g"), vfs.ErrExist)
	wantErrIs(t, fs.Link("/f", "/no/dir/x"), vfs.ErrNotExist)
}

// testInodeNumbersDistinct: files and directories at three levels
// each have their own inode number, and each ReadDir entry carries the
// number Stat reports for its path.
func testInodeNumbersDistinct(t *testing.T, fs vfs.FileSystem) {
	dirs := []string{"", "/a", "/b", "/a/c", "/b/c"}
	for _, d := range dirs[1:] {
		must(t, fs.Mkdir(d))
	}
	for _, d := range dirs {
		for i := 0; i < 12; i++ {
			must(t, fs.Create(fmt.Sprintf("%s/f%d", d, i)))
		}
	}
	root, err := fs.Stat("/")
	must(t, err)
	seen := map[layout.Ino]string{root.Ino: "/"}
	for _, d := range dirs {
		entries, err := fs.ReadDir(d + "/")
		must(t, err)
		for _, e := range entries {
			p := d + "/" + e.Name
			fi, err := fs.Stat(p)
			must(t, err)
			if fi.Ino != e.Ino {
				t.Fatalf("%s: ReadDir says inode %d, Stat says %d", p, e.Ino, fi.Ino)
			}
			if prev, dup := seen[fi.Ino]; dup {
				t.Fatalf("inode %d shared by %s and %s", fi.Ino, prev, p)
			}
			seen[fi.Ino] = p
		}
	}
}
