package workload

import (
	"fmt"
	"math/rand"

	"lfs/internal/sim"
)

// ZipfOpts parameterises the skewed-overwrite load behind the
// cleaning-curve experiment: a fixed file population is created once,
// then overwritten with Zipf-distributed file choice — rank 0 is the
// hottest file, the tail is nearly-cold data the cleaner must learn to
// leave alone. This is the locality pattern for which the authors'
// follow-up work introduced cost-benefit selection and age-sorted
// write-out; a uniform pattern would make every policy look the same.
type ZipfOpts struct {
	// Files is the population size; each file is one FileSize write.
	Files int
	// FileSize is the per-file payload.
	FileSize int
	// Overwrites is the number of whole-file overwrites issued.
	Overwrites int
	// Dir is the working directory.
	Dir string
	// Seed drives the file choice.
	Seed int64
}

// The Zipf law is P(rank) ∝ 1/(zipfV+rank)^zipfS. A Sync after every
// zipfSyncEvery overwrites bounds dirty-cache residency, so overwrite
// traffic reaches the log instead of coalescing in memory.
const (
	zipfS         = 1.1
	zipfV         = 8
	zipfSyncEvery = 64
)

// DefaultZipf returns the 80/20-ish skew used by the cleaning curve.
func DefaultZipf() ZipfOpts {
	return ZipfOpts{
		Files:      4000,
		FileSize:   4096,
		Overwrites: 12000,
		Dir:        "/zipf",
		Seed:       23,
	}
}

// ZipfResult summarises the run.
type ZipfResult struct {
	// Creates and Overwrites count the operations issued.
	Creates, Overwrites int
	// HottestShare is the fraction of overwrites that hit the top 1%
	// of files (by rank), a quick skew sanity check.
	HottestShare float64
	// Elapsed is the simulated duration of the overwrite phase only
	// (creation is setup, not the measured churn).
	Elapsed sim.Duration
}

// ZipfOverwrite creates the population, syncs it, then issues the
// skewed overwrites. Same-seed runs are byte-identical: the only
// randomness is the explicitly seeded Zipf draw.
func ZipfOverwrite(sys System, opts ZipfOpts) (ZipfResult, error) {
	var res ZipfResult
	if opts.Files <= 0 || opts.FileSize <= 0 || opts.Overwrites < 0 {
		return res, fmt.Errorf("workload: bad zipf opts %+v", opts)
	}
	if err := sys.Mkdir(opts.Dir); err != nil {
		return res, err
	}
	names := fileNames(opts.Dir, opts.Files)
	payload := make([]byte, opts.FileSize)
	fill(payload, opts.Seed)
	for i := 0; i < opts.Files; i++ {
		if err := sys.Create(names[i]); err != nil {
			return res, err
		}
		if err := sys.Write(names[i], 0, payload); err != nil {
			return res, err
		}
		res.Creates++
	}
	if err := sys.Sync(); err != nil {
		return res, err
	}

	rng := newRNG(opts.Seed)
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(opts.Files-1))
	hotCut := opts.Files / 100
	if hotCut < 1 {
		hotCut = 1
	}
	hotHits := 0
	start := sys.Clock().Now()
	for i := 0; i < opts.Overwrites; i++ {
		rank := int(zipf.Uint64())
		if rank < hotCut {
			hotHits++
		}
		// Vary the payload so overwrites are real new data, not
		// dedupable repeats.
		payload[0] = byte(i)
		payload[1] = byte(i >> 8)
		if err := sys.Write(names[rank], 0, payload); err != nil {
			return res, err
		}
		res.Overwrites++
		if (i+1)%zipfSyncEvery == 0 {
			if err := sys.Sync(); err != nil {
				return res, err
			}
		}
	}
	if err := sys.Sync(); err != nil {
		return res, err
	}
	res.Elapsed = sys.Clock().Now().Sub(start)
	if res.Overwrites > 0 {
		res.HottestShare = float64(hotHits) / float64(res.Overwrites)
	}
	return res, nil
}
