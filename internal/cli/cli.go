// Package cli holds small helpers shared by the command-line tools.
package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lfs"
)

// ShardImagePath names shard i's image for a multi-shard volume
// rooted at base, inserting the shard index before the extension:
// "fs.img" → "fs.shard0.img", "vol" → "vol.shard2". Every shard image
// is a standalone LFS volume (see FORMAT.md); the naming is only a
// convention tying the set together on disk.
func ShardImagePath(base string, shard int) string {
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.shard%d%s", strings.TrimSuffix(base, ext), shard, ext)
}

// ParseSize parses a human-friendly byte size: a plain number, or a
// number suffixed with K, M, or G (binary multiples, case
// insensitive). Examples: "512", "4K", "300M", "1g".
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch t[len(t)-1] {
	case 'K':
		mult, t = 1<<10, t[:len(t)-1]
	case 'M':
		mult, t = 1<<20, t[:len(t)-1]
	case 'G':
		mult, t = 1<<30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if n <= 0 {
		return 0, fmt.Errorf("non-positive size %q", s)
	}
	return n * mult, nil
}

// OpenImage opens the disk image at path at the file's own length, the
// one mklfs gave it. A missing file, or a length that is not a whole
// disk (a truncated or foreign file), is refused before the image is
// opened, so a tool never creates or extends one.
func OpenImage(path string) (*lfs.Disk, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if n := info.Size(); n <= 0 || lfs.ImageBytes(n) != n {
		return nil, fmt.Errorf("image %s is %d bytes, not the length of a whole disk (truncated?)", path, n)
	}
	return lfs.OpenImage(path, info.Size())
}
