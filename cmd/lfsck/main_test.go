package main

import (
	"path/filepath"
	"testing"

	"lfs"
)

// TestCheckReadsGeometryFromImage: an image formatted with 8 KB blocks,
// 512 KB segments and 1 024 inodes, none of them the default, checks
// clean with no geometry given.
func TestCheckReadsGeometryFromImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	d, err := lfs.CreateImage(path, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cfg := lfs.DefaultConfig()
	cfg.BlockSize, cfg.SegmentSize, cfg.MaxInodes = 8192, 512<<10, 1024
	if err := lfs.Format(d, cfg); err != nil {
		t.Fatal(err)
	}
	rep, err := check(d, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Dirs != 1 {
		t.Fatalf("fresh 8 KB-block image: %d dirs, problems %v", rep.Dirs, rep.Problems)
	}
}
