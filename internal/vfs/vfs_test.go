package vfs_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lfs/internal/fstest"
	"lfs/internal/layout"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

func TestModelConformance(t *testing.T) {
	fstest.RunConformance(t, func(t *testing.T) vfs.FileSystem {
		return vfs.NewModel(nil)
	})
}

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		err  bool
	}{
		{"/", nil, false},
		{"/a", []string{"a"}, false},
		{"/a/b/c", []string{"a", "b", "c"}, false},
		{"/a/", []string{"a"}, false},
		{"", nil, true},
		{"a/b", nil, true},
		{"/a//b", nil, true},
		{"/a/./b", nil, true},
		{"/a/../b", nil, true},
	}
	for _, c := range cases {
		got, err := vfs.SplitPath(c.in)
		if c.err {
			if err == nil {
				t.Errorf("SplitPath(%q) accepted", c.in)
			} else if !errors.Is(err, vfs.ErrInvalid) {
				t.Errorf("SplitPath(%q) error %v not ErrInvalid", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitPath(%q) failed: %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSplitDirBase(t *testing.T) {
	dir, base, err := vfs.SplitDirBase("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dir, []string{"a", "b"}) || base != "c" {
		t.Fatalf("SplitDirBase = %v, %q", dir, base)
	}
	dir, base, err = vfs.SplitDirBase("/x")
	if err != nil || len(dir) != 0 || base != "x" {
		t.Fatalf("SplitDirBase(/x) = %v, %q, %v", dir, base, err)
	}
	if _, _, err := vfs.SplitDirBase("/"); err == nil {
		t.Fatal("SplitDirBase(/) accepted")
	}
}

func TestModelTimestamps(t *testing.T) {
	clock := sim.NewClock()
	m := vfs.NewModel(clock)
	if err := m.Create("/f"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * sim.Second)
	if err := m.Write("/f", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	fi, err := m.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mtime != sim.Time(10*sim.Second) {
		t.Fatalf("Mtime = %v", fi.Mtime)
	}
	clock.Advance(5 * sim.Second)
	if _, err := m.Read("/f", 0, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	fi, _ = m.Stat("/f")
	if fi.Atime != sim.Time(15*sim.Second) {
		t.Fatalf("Atime = %v, want 15s", fi.Atime)
	}
	if fi.Mtime != sim.Time(10*sim.Second) {
		t.Fatal("read changed Mtime")
	}
}

func TestModelMaxFileSize(t *testing.T) {
	m := vfs.NewModel(nil)
	m.MaxFileSize = 1000
	if err := m.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := m.Write("/f", 990, make([]byte, 20)); !errors.Is(err, vfs.ErrTooLarge) {
		t.Fatalf("oversize write: %v", err)
	}
	if err := m.Truncate("/f", 2000); !errors.Is(err, vfs.ErrTooLarge) {
		t.Fatalf("oversize truncate: %v", err)
	}
	if err := m.Write("/f", 0, make([]byte, 1000)); err != nil {
		t.Fatalf("exact-size write rejected: %v", err)
	}
}

func TestModelRootIno(t *testing.T) {
	m := vfs.NewModel(nil)
	fi, err := m.Stat("/")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Ino != layout.RootIno {
		t.Fatalf("root ino = %d", fi.Ino)
	}
}

// splitPathRef is SplitPath as it was written before AppendPath: one
// strings.Split, then the checks. The reference the two are held to.
func splitPathRef(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: path %q is not absolute", vfs.ErrInvalid, path)
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(strings.TrimSuffix(path[1:], "/"), "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, fmt.Errorf("%w: path %q has component %q", vfs.ErrInvalid, path, p)
		}
		if err := layout.ValidName(p); err != nil {
			return nil, fmt.Errorf("%w: %v", vfs.ErrInvalid, err)
		}
	}
	return parts, nil
}

// splitSeeds are the paths of TestSplitPath's table and the spellings
// around them that the splitters must agree on.
var splitSeeds = []string{
	"/", "/a", "/a/b/c", "/a/", "", "a/b", "/a//b", "/a/./b", "/a/../b",
	"//", "///", "/a//", "//a", "/.", "/..", "/a/.", "/.../x", "/a\x00b", "/a/b\x00",
	"/small1k/f004242", "/client07/f003", "/" + strings.Repeat("n", layout.MaxNameLen),
	"/" + strings.Repeat("n", layout.MaxNameLen+1), "/a/" + strings.Repeat("x/", 40),
}

// checkSplit holds SplitPath, AppendPath, SplitDirBase and AppendDirBase
// to the reference on one path: the same parts, the same error text.
func checkSplit(t *testing.T, path string) {
	t.Helper()
	same := func(what string, got []string, err error, want []string, wantErr error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) || (err != nil && (err.Error() != wantErr.Error() || !errors.Is(err, vfs.ErrInvalid))) {
			t.Fatalf("%s(%q): error %v, want %v", what, path, err, wantErr)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s(%q) = %q, want %q", what, path, got, want)
		}
	}
	want, wantErr := splitPathRef(path)
	got, err := vfs.SplitPath(path)
	same("SplitPath", got, err, want, wantErr)

	// Into spare capacity, behind a prefix that must survive, and into
	// no capacity at all.
	for _, dst := range [][]string{make([]string, 0, vfs.PathDepth), {"kept", "too"}, nil} {
		prefix := append([]string(nil), dst...)
		got, err = vfs.AppendPath(dst, path)
		if err != nil {
			same("AppendPath", got, err, nil, wantErr)
			continue
		}
		same("AppendPath", got[len(prefix):], err, want, wantErr)
		same("AppendPath prefix", got[:len(prefix)], nil, prefix, nil)
	}

	wantDir, wantBase := want, ""
	if wantErr == nil && len(want) == 0 {
		wantErr = fmt.Errorf("%w: root has no parent", vfs.ErrInvalid)
	}
	if wantErr == nil {
		wantDir, wantBase = want[:len(want)-1], want[len(want)-1]
	}
	dir, base, err := vfs.SplitDirBase(path)
	same("SplitDirBase", dir, err, wantDir, wantErr)
	adir, abase, err := vfs.AppendDirBase([]string{"kept"}, path)
	if err == nil {
		adir = adir[1:]
	}
	same("AppendDirBase", adir, err, wantDir, wantErr)
	if base != wantBase || abase != wantBase {
		t.Fatalf("base of %q: SplitDirBase %q, AppendDirBase %q, want %q", path, base, abase, wantBase)
	}
}

// TestAppendPathMatchesSplitPath: the splitters agree with the reference
// on the seeds and on random strings over the bytes that matter.
func TestAppendPathMatchesSplitPath(t *testing.T) {
	for _, path := range splitSeeds {
		checkSplit(t, path)
	}
	const alphabet = "//..ab\x00"
	f := func(raw []uint8) bool {
		b := []byte{'/'}
		for _, r := range raw {
			b = append(b, alphabet[int(r)%len(alphabet)])
		}
		checkSplit(t, string(b))
		checkSplit(t, string(b[1:]))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func FuzzAppendPath(f *testing.F) {
	for _, path := range splitSeeds {
		f.Add(path)
	}
	f.Fuzz(checkSplit)
}

// TestAppendPathOwnsNothing: AppendPath keeps no reference to dst — a
// second split into the same memory is right whatever the first left
// there — and allocates nothing while the parts fit.
func TestAppendPathOwnsNothing(t *testing.T) {
	buf := make([]string, 0, vfs.PathDepth)
	first, err := vfs.AppendPath(buf, "/a/b/c/d")
	if err != nil || len(first) != 4 {
		t.Fatalf("AppendPath = %q, %v", first, err)
	}
	second, err := vfs.AppendPath(buf, "/x/y")
	if err != nil || !reflect.DeepEqual(second, []string{"x", "y"}) || &second[0] != &first[0] {
		t.Fatalf("second split into the same memory = %q, %v", second, err)
	}
	// Rename's arrangement: the second path behind the first one's parent.
	oldDir, oldBase, err := vfs.AppendDirBase(buf, "/d1/d2/old")
	if err != nil {
		t.Fatal(err)
	}
	newDir, newBase, err := vfs.AppendDirBase(oldDir[len(oldDir):], "/d3/new")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v %v %v %v", oldDir, oldBase, newDir, newBase) != "[d1 d2] old [d3] new" || &newDir[0] != &first[2] {
		t.Fatalf("two paths in one buffer: %q %q, %q %q", oldDir, oldBase, newDir, newBase)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := vfs.AppendPath(buf, "/small1k/f004242"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := vfs.AppendDirBase(buf, "/client07/f003"); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("AppendPath + AppendDirBase into spare capacity: %v allocs, want 0", n)
	}
}

// Property: SplitPath of a path rebuilt from valid components returns
// exactly those components.
func TestSplitPathRoundTripProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var parts []string
		for _, r := range raw {
			parts = append(parts, fmt.Sprintf("c%d", r))
			if len(parts) == 8 {
				break
			}
		}
		path := "/" + strings.Join(parts, "/")
		if len(parts) == 0 {
			path = "/"
		}
		got, err := vfs.SplitPath(path)
		if err != nil {
			return false
		}
		if len(got) != len(parts) {
			return false
		}
		for i := range got {
			if got[i] != parts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var sinkParts []string

// BenchmarkSplitPath is lfsperf's vfs.split_path kernel — the path of a
// smallfile create — three ways in one process, because run-to-run noise
// on a shared machine is larger than the differences: SplitPath into a
// fresh slice, the reference it replaced, and AppendPath into memory the
// caller owns, which is how the file systems split.
func BenchmarkSplitPath(b *testing.B) {
	const path = "/small1k/f004242"
	buf := make([]string, 0, vfs.PathDepth)
	for _, c := range []struct {
		name  string
		split func() ([]string, error)
	}{
		{"SplitPath", func() ([]string, error) { return vfs.SplitPath(path) }},
		{"reference", func() ([]string, error) { return splitPathRef(path) }},
		{"AppendPath", func() ([]string, error) { return vfs.AppendPath(buf, path) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkParts, _ = c.split()
			}
		})
	}
}
