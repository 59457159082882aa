package fstest

import (
	"testing"

	"lfs/internal/cache"
)

// PoisonRecycledBuffers makes every block cache scribble over each
// buffer it takes back, and the LFS cleaner over the memory it takes
// victims into — when a pass ends, and before a victim is read into it
// again — for the rest of the test: bytes read through a stale block,
// left over in a recycled one, or relocated from a victim buffer after
// its pass, then differ from what was written, and the suites that
// compare a file system against the reference model report the
// divergence.
func PoisonRecycledBuffers(t *testing.T) {
	t.Helper()
	cache.DebugPoison = true
	t.Cleanup(func() { cache.DebugPoison = false })
}
