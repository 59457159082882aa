package cli

import (
	"os"
	"path/filepath"
	"testing"

	"lfs"
)

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
		got, err := ParseSize(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "12Q", "-5", "0", "K"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestShardImagePath(t *testing.T) {
	cases := []struct {
		base  string
		shard int
		want  string
	}{
		{"fs.img", 0, "fs.shard0.img"},
		{"fs.img", 12, "fs.shard12.img"},
		{"vol", 2, "vol.shard2"},
		{"dir/fs.img", 1, "dir/fs.shard1.img"},
	}
	for _, tc := range cases {
		if got := ShardImagePath(tc.base, tc.shard); got != tc.want {
			t.Errorf("ShardImagePath(%q, %d) = %q, want %q", tc.base, tc.shard, got, tc.want)
		}
	}
}

// TestOpenImage: an image made at a size opens at that size, and one cut
// short is refused and keeps its length.
func TestOpenImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vol.img")
	made, err := lfs.OpenImage(path, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := made.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.Sectors()*512, lfs.ImageBytes(32<<20); got != want {
		t.Errorf("opened at %d bytes, want %d", got, want)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	short := lfs.ImageBytes(32<<20) - 4096
	if err := os.Truncate(path, short); err != nil {
		t.Fatal(err)
	}
	if d, err := OpenImage(path); err == nil {
		d.Close()
		t.Fatal("a truncated image opened")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != short {
		t.Fatalf("refused image is %d bytes, want %d", info.Size(), short)
	}
	if _, err := OpenImage(filepath.Join(t.TempDir(), "missing.img")); err == nil {
		t.Fatal("a missing image opened")
	}
}
