package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"lfs"
)

// TestRunReplacesLongerFile: formatting over a file longer than the
// volume, of a length no disk has, leaves the image exactly one volume
// long, so the tools open it at its own length and it checks clean.
func TestRunReplacesLongerFile(t *testing.T) {
	image := filepath.Join(t.TempDir(), "vol.img")
	if err := os.WriteFile(image, make([]byte, 40<<20+12345), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-image", image, "-size", "32M", "-inodes", "1024"}); err != nil {
		t.Fatal(err)
	}
	d, err := lfs.OpenImage(image)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cfg, err := lfs.ImageConfig(d, lfs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lfs.Fsck(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() || rep.Dirs != 1 {
		t.Fatalf("%d dirs, problems %v", rep.Dirs, rep.Problems)
	}
}

// TestRunLeavesImageOnFailure: a geometry no volume can have is an
// argument error, and a capacity too small for the geometry fails the
// format; after either the target holds what it held before, and no
// temporary file is left beside it.
func TestRunLeavesImageOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vol.img")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-image", path, "-size", "16M", "-block", "1000"}); !errors.Is(err, errUsage) {
		t.Fatalf("-block 1000: got %v, want a usage error", err)
	}
	if err := run([]string{"-image", path, "-size", "1M"}); err == nil || errors.Is(err, errUsage) {
		t.Fatalf("-size 1M: got %v, want a format error", err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
		t.Fatalf("image after a failed format: %d bytes, %v", len(b), err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.mklfs")); len(left) != 0 {
		t.Fatalf("temporary files left: %v", left)
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"512", 512},
		{"4K", 4 << 10},
		{"4k", 4 << 10},
		{"300M", 300 << 20},
		{"1G", 1 << 30},
		{" 8M ", 8 << 20},
	}
	for _, tc := range cases {
		got, err := parseSize(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "12Q", "-5", "0", "K"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) accepted", bad)
		}
	}
}
