package fstest

import (
	"fmt"
	"math/rand"
	"testing"

	"lfs/internal/vfs"
)

// RunEquivalence drives the implementation produced by open and the
// in-memory model with the same pseudo-random operation sequence and
// fails on the first observable divergence: differing error classes,
// differing read contents, differing directory listings, or a
// differing final tree.
func RunEquivalence(t *testing.T, open Factory, seed int64, nOps int) {
	t.Helper()
	fs := open(t)
	model := vfs.NewModel(nil)
	for i, op := range RandomWorkload(seed, nOps) {
		got, err := op.Apply(fs)
		if diff := diffModel(model, op, got, err); diff != "" {
			t.Fatalf("step %d (%s): %s", i, op, diff)
		}
	}
	if diff := treeDiff(fs, model); diff != "" {
		t.Fatalf("final walk: %s", diff)
	}
}

// RandomWorkload returns the first n operations the generator draws from
// seed — the stream RunEquivalence checks against the model, and a
// crash-point workload that includes renames, links and failing ops.
func RandomWorkload(seed int64, n int) []Op {
	g := newOpGen(rand.New(rand.NewSource(seed)))
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// opGen generates operations biased toward paths that exist, so the
// sequence exercises deep behaviour rather than erroring constantly.
type opGen struct {
	rng   *rand.Rand
	dirs  []string // existing directories, always contains "/"
	files []string // paths that were created as files (may be stale)
	next_ int
}

func newOpGen(rng *rand.Rand) *opGen {
	return &opGen{rng: rng, dirs: []string{"/"}}
}

func (g *opGen) randDir() string { return g.dirs[g.rng.Intn(len(g.dirs))] }

func (g *opGen) randFile() string {
	if len(g.files) == 0 || g.rng.Intn(10) == 0 {
		// Occasionally reference a plausible but maybe-missing path.
		return g.join(g.randDir(), fmt.Sprintf("f%d", g.rng.Intn(30)))
	}
	return g.files[g.rng.Intn(len(g.files))]
}

func (g *opGen) join(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

func (g *opGen) newName(prefix string) string {
	g.next_++
	return fmt.Sprintf("%s%d-%d", prefix, g.next_, g.rng.Intn(8))
}

func (g *opGen) next() Op {
	r := g.rng.Intn(100)
	switch {
	case r < 20: // create
		p := g.join(g.randDir(), g.newName("f"))
		g.files = append(g.files, p)
		return Op{Kind: OpCreate, Path: p}
	case r < 45: // write
		size := g.rng.Intn(20_000) + 1
		data := make([]byte, size)
		g.rng.Read(data)
		return Op{Kind: OpWrite, Path: g.randFile(), Off: int64(g.rng.Intn(60_000)), Data: data}
	case r < 60: // read
		return Op{Kind: OpRead, Path: g.randFile(), Off: int64(g.rng.Intn(80_000)), ReadLen: g.rng.Intn(30_000) + 1}
	case r < 70: // remove (files mostly, sometimes dirs)
		if g.rng.Intn(5) == 0 && len(g.dirs) > 1 {
			return Op{Kind: OpRemove, Path: g.dirs[1+g.rng.Intn(len(g.dirs)-1)]}
		}
		return Op{Kind: OpRemove, Path: g.randFile()}
	case r < 78: // mkdir
		p := g.join(g.randDir(), g.newName("d"))
		g.dirs = append(g.dirs, p)
		return Op{Kind: OpMkdir, Path: p}
	case r < 83: // readdir
		return Op{Kind: OpReadDir, Path: g.randDir()}
	case r < 90: // truncate
		return Op{Kind: OpTruncate, Path: g.randFile(), Size: int64(g.rng.Intn(70_000))}
	case r < 92: // rename
		dst := g.join(g.randDir(), g.newName("r"))
		g.files = append(g.files, dst)
		return Op{Kind: OpRename, Path: g.randFile(), Path2: dst}
	case r < 94: // hard link
		dst := g.join(g.randDir(), g.newName("l"))
		g.files = append(g.files, dst)
		return Op{Kind: OpLink, Path: g.randFile(), Path2: dst}
	case r < 97: // sync (exercises flush interleavings)
		return Op{Kind: OpSync}
	default: // stat
		return Op{Kind: OpStat, Path: g.randFile()}
	}
}
