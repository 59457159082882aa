package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lfs"
	"lfs/internal/cli"
)

// TestRunReplacesLongerFile: formatting over a file longer than the
// volume, of a length no disk has, leaves each image exactly one
// volume long, so the tools open it at its own length and it checks
// clean — alone and as a shard.
func TestRunReplacesLongerFile(t *testing.T) {
	dir := t.TempDir()
	for _, shards := range []string{"1", "2"} {
		image := filepath.Join(dir, "vol"+shards+".img")
		paths := []string{image}
		if shards != "1" {
			paths = []string{cli.ShardImagePath(image, 0), cli.ShardImagePath(image, 1)}
		}
		for _, p := range paths {
			if err := os.WriteFile(p, make([]byte, 40<<20+12345), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := run([]string{"-image", image, "-size", "32M", "-inodes", "1024", "-shards", shards}); err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			d, err := cli.OpenImage(p)
			if err != nil {
				t.Fatalf("-shards %s: %v", shards, err)
			}
			cfg, err := lfs.ImageConfig(d, lfs.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rep, err := lfs.Fsck(d, cfg)
			d.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Ok() || rep.Dirs != 1 {
				t.Fatalf("%s: %d dirs, problems %v", p, rep.Dirs, rep.Problems)
			}
		}
	}
}

// TestRunLeavesImageOnBadGeometry: a geometry no volume can have is an
// argument error, refused before any target is emptied.
func TestRunLeavesImageOnBadGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-image", path, "-size", "16M", "-block", "1000"}); !errors.Is(err, errUsage) {
		t.Fatalf("-block 1000: got %v, want a usage error", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
		t.Fatalf("image after a refused format: %q, %v", b, err)
	}
}
