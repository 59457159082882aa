package vfs_test

import (
	"bytes"
	"testing"
)

// TestRandomReadIsOneTransfer: a read of two blocks that lie contiguous
// on disk, at an offset no earlier read leads up to, costs one disk
// request of two blocks — the rest of the request rides the first
// block's miss — and no read-ahead past the request.
func TestRandomReadIsOneTransfer(t *testing.T) {
	for _, row := range fileSystems {
		t.Run(row.name, func(t *testing.T) {
			fs := row.open(t, sizing{capacity: 64 << 20, inodes: 256})
			bs := fs.blockSize
			must(t, fs.Create("/f"))
			must(t, fs.Write("/f", 0, bytes.Repeat([]byte{0x5A}, 16*bs)))
			fs = fs.remount(t)
			if _, err := fs.Stat("/f"); err != nil { // the path and the inode
				t.Fatal(err)
			}
			_, _, _, before := fs.snap()
			buf := make([]byte, 2*bs)
			if n, err := fs.Read("/f", int64(5*bs), buf); err != nil || n != len(buf) || buf[0] != 0x5A || buf[n-1] != 0x5A {
				t.Fatalf("read %d bytes, %v", n, err)
			}
			_, _, _, after := fs.snap()
			if d := after.Sub(before); d.Reads != 1 || d.BytesRead() != int64(2*bs) {
				t.Errorf("a %d-byte random read cost %d disk reads of %d bytes, want 1 of %d", 2*bs, d.Reads, d.BytesRead(), 2*bs)
			}
		})
	}
}
