// Package workload implements the benchmark workloads of the paper's
// evaluation (§5): the small-file create/read/delete test behind
// Figure 3, the five-phase 100 MB large-file test behind Figure 4,
// and the fragmentation load (create many 1 KB files, delete a
// fraction) behind the cleaning-rate measurement of Figure 5.
//
// All rates are computed from simulated time, so results are
// deterministic and reflect the modelled 1990 hardware rather than
// the host machine.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// System is a mounted file system under test: the vfs operations plus
// the instrumentation hooks both implementations provide.
type System interface {
	vfs.FileSystem
	// Clock returns the simulated clock measuring the run.
	Clock() *sim.Clock
	// DropCaches evicts clean cached data, the paper's
	// between-phase cache flush.
	DropCaches()
}

// Phase is one measured benchmark phase.
type Phase struct {
	// Name labels the phase ("create", "seq write", ...).
	Name string
	// Ops is the number of operations performed.
	Ops int
	// Bytes is the payload volume moved.
	Bytes int64
	// Duration is the simulated time the phase took.
	Duration sim.Duration
}

// OpsPerSec returns operations per simulated second.
func (p Phase) OpsPerSec() float64 {
	if p.Duration <= 0 {
		return 0
	}
	return float64(p.Ops) / p.Duration.Seconds()
}

// KBPerSec returns payload kilobytes per simulated second.
func (p Phase) KBPerSec() float64 {
	if p.Duration <= 0 {
		return 0
	}
	return float64(p.Bytes) / 1024 / p.Duration.Seconds()
}

// String formats the phase on one line.
func (p Phase) String() string {
	return fmt.Sprintf("%-12s %6d ops %8.1f ops/s %9.0f KB/s (%v)",
		p.Name, p.Ops, p.OpsPerSec(), p.KBPerSec(), p.Duration)
}

// measure runs fn and returns the phase record for it.
func measure(sys System, name string, ops int, bytes int64, fn func() error) (Phase, error) {
	start := sys.Clock().Now()
	if err := fn(); err != nil {
		return Phase{}, fmt.Errorf("workload %s: %w", name, err)
	}
	return Phase{Name: name, Ops: ops, Bytes: bytes, Duration: sys.Clock().Now().Sub(start)}, nil
}

// fileNames returns dir/f000000 … dir/f<n-1>, the scripts' file names,
// as substrings of one string built once a run: formatting a path per
// call was 70 % of the small-file script's allocations.
func fileNames(dir string, n int) []string {
	var all, num []byte
	ends := make([]int, n)
	for i := range ends {
		all = append(append(all, dir...), "/f"...)
		num = strconv.AppendInt(num[:0], int64(i), 10)
		all = append(append(all, "000000"[min(len(num), 6):]...), num...) // %06d
		ends[i] = len(all)
	}
	names, joined, start := make([]string, n), string(all), 0
	for i, end := range ends {
		names[i], start = joined[start:end], end
	}
	return names
}

// fill writes a deterministic pattern derived from seed into p.
func fill(p []byte, seed int64) {
	x := uint64(seed)*2654435761 + 1
	for i := range p {
		x = x*6364136223846793005 + 1442695040888963407
		p[i] = byte(x >> 56)
	}
}

// newRNG returns the deterministic RNG used by randomized phases.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
