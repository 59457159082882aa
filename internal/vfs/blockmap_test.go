package vfs_test

import (
	"bytes"
	"fmt"
	"testing"

	"lfs/internal/layout"
)

// TestBlockPtrAtTheLevelEdges drives the one walk of a file's pointer
// tree (vfs.BlockPtr) under both file systems at each edge between its
// levels: the last direct block, the first and last single-indirect
// ones, the first block of the first and of the second inner block, and
// the last block a file can have. At each, a read of a hole allocates
// nothing, a written block reads back from disk, and a truncate to the
// edge leaves the checker clean.
func TestBlockPtrAtTheLevelEdges(t *testing.T) {
	const bs = 512 // the whole tree is then an 8 MB file
	apb := int64(layout.AddrsPerBlock(bs))
	lbns := []int64{
		layout.NDirect - 1, layout.NDirect,
		layout.NDirect + apb - 1, layout.NDirect + apb,
		layout.NDirect + 2*apb, layout.MaxFileBlocks(bs) - 1,
	}
	for _, row := range fileSystems {
		t.Run(row.name, func(t *testing.T) {
			fs := row.open(t, sizing{capacity: 32 << 20, blockSize: bs})
			buf := make([]byte, bs)
			for _, lbn := range lbns {
				path, off := fmt.Sprintf("/f%d", lbn), lbn*bs
				must(t, fs.Create(path))
				must(t, fs.Truncate(path, off+bs))
				_, _, before, _ := fs.snap()
				_, err := fs.Read(path, off, buf)
				must(t, err)
				if _, _, after, _ := fs.snap(); after.Inserted != before.Inserted || !bytes.Equal(buf, make([]byte, bs)) {
					t.Errorf("block %d: a read of the hole cached %d blocks and returned %x..., want none and zeros",
						lbn, after.Inserted-before.Inserted, buf[:4])
				}

				data := bytes.Repeat([]byte{byte(lbn) | 1}, bs)
				must(t, fs.Write(path, off, data))
				must(t, fs.Sync())
				fs.DropCaches()
				_, err = fs.Read(path, off, buf)
				must(t, err)
				if !bytes.Equal(buf, data) {
					t.Errorf("block %d read back %x..., want %x...", lbn, buf[:4], data[:4])
				}

				must(t, fs.Truncate(path, off))
				must(t, fs.Sync())
				if problems := fs.check(t); len(problems) != 0 {
					t.Errorf("after a truncate to block %d: %q", lbn, problems)
				}
			}
		})
	}
}
