package lfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"lfs"
)

// TestPublicAPIRoundTrip exercises the façade end to end: format,
// mount, file operations, unmount, remount.
func TestPublicAPIRoundTrip(t *testing.T) {
	d := lfs.NewMemDisk(64 << 20)
	cfg := lfs.DefaultConfig()
	if err := lfs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/data/f"); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("abc"), 5000)
	if err := fs.Write("/data/f", 0, want); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}

	fs2, err := lfs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	n, err := fs2.Read("/data/f", 0, got)
	if err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("round trip failed: n=%d err=%v", n, err)
	}
	if _, err := fs2.Stat("/missing"); !errors.Is(err, lfs.ErrNotExist) {
		t.Fatalf("sentinel error not exported correctly: %v", err)
	}
}

// TestPublicAPIBaseline exercises the FFS baseline façade.
func TestPublicAPIBaseline(t *testing.T) {
	d := lfs.NewMemDisk(32 << 20)
	cfg := lfs.DefaultBaselineConfig()
	if err := lfs.FormatBaseline(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.MountBaseline(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	rep, err := lfs.FsckBaseline(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck problems on clean fs: %v", rep.Problems)
	}
}

// TestOpenImage verifies the file-backed disk path used by the CLI
// tools, including persistence across process-style reopen.
func TestOpenImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := lfs.OpenImage(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/persisted"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := lfs.OpenImage(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	fs2, err := lfs.Mount(d2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Stat("/persisted"); err != nil {
		t.Fatalf("image did not persist: %v", err)
	}
}

// TestCleanPolicyNames pins the exported policy constants.
func TestCleanPolicyNames(t *testing.T) {
	if lfs.CleanGreedy.String() != "greedy" || lfs.CleanCostBenefit.String() != "cost-benefit" {
		t.Fatal("policy names changed")
	}
}

func ExampleFormat() {
	d := lfs.NewMemDisk(16 << 20)
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		panic(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}
	fs.Create("/hello")
	fs.Write("/hello", 0, []byte("world"))
	buf := make([]byte, 5)
	n, _ := fs.Read("/hello", 0, buf)
	fmt.Println(string(buf[:n]))
	// Output: world
}

// TestCIBaselinesCommitted: every baseline scripts/ci.sh holds a smoke
// to (`gate NAME` diffs against BENCH_NAME.json) must exist in the tree
// and not be ignored by git, or the merge gate fails on a fresh clone
// before it compares anything.
func TestCIBaselinesCommitted(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join("scripts", "ci.sh"))
	if err != nil {
		t.Fatal(err)
	}
	ignored, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	baselines := regexp.MustCompile(`(?m)^gate (\w+)$`).FindAllSubmatch(ci, -1)
	if len(baselines) == 0 {
		t.Fatal("scripts/ci.sh gates no smoke on a baseline; has the gate moved?")
	}
	for _, m := range baselines {
		name := "BENCH_" + string(m[1]) + ".json"
		if _, err := os.Stat(name); err != nil {
			t.Errorf("ci.sh diffs against %s, which is not in the tree: %v", name, err)
		}
		for _, line := range strings.Split(string(ignored), "\n") {
			if strings.TrimPrefix(strings.TrimSpace(line), "/") == name {
				t.Errorf("ci.sh diffs against %s, which .gitignore excludes", name)
			}
		}
	}
}
