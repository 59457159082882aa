package fstest

import (
	"testing"

	"lfs/internal/cache"
)

// PoisonRecycledBuffers makes every block cache scribble over each
// buffer it takes back, for the rest of the test: bytes read through a
// stale block, or left over in a recycled one, then differ from what
// was written, and the suites that compare a file system against the
// reference model report the divergence.
func PoisonRecycledBuffers(t *testing.T) {
	t.Helper()
	cache.DebugPoison = true
	t.Cleanup(func() { cache.DebugPoison = false })
}
