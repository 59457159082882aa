package workload

import (
	"fmt"
	"math/rand"
)

// OfficeOpts models the office/engineering environment the paper
// designs for (§3), following the characterisation of the BSD
// trace-driven analysis it cites: "a large number of relatively small
// files (less than 8 kilobytes) whose contents are accessed
// sequentially and in their entirety. The average file life time is
// short ... before it is overwritten or deleted."
type OfficeOpts struct {
	// Ops is the total number of trace events to generate.
	Ops int
	// TargetFiles is the steady-state file population.
	TargetFiles int
	// MeanLifetimeOps is the mean file lifetime, in events.
	MeanLifetimeOps int
	// Seed drives everything.
	Seed int64
}

// The trace's fixed shape: files spread over officeUsers user
// directories; officeReadFraction of events are whole-file reads, of
// the rest officeOverwriteFraction rewrite an existing file in place
// and the remainder create new files; the most recent fifth of the
// files receive officeHotBias of the accesses.
const (
	officeUsers             = 8
	officeReadFraction      = 0.45
	officeOverwriteFraction = 0.25
	officeHotBias           = 0.8
)

// DefaultOffice returns a workload shaped like the paper's
// environment description.
func DefaultOffice() OfficeOpts {
	return OfficeOpts{
		Ops:             20000,
		TargetFiles:     2500,
		MeanLifetimeOps: 4000,
		Seed:            31,
	}
}

// OfficeResult summarises a trace run.
type OfficeResult struct {
	Creates, Deletes, Reads, Overwrites int
	BytesWritten, BytesRead             int64
	// Elapsed is the simulated duration of the run.
	Elapsed Phase
}

// officeFile is one live file in the trace state.
type officeFile struct {
	path  string
	size  int
	dieAt int
}

// officeFileSize draws a file size from a small-file-heavy
// distribution: ~80% at or below 8 KB (the paper's characterisation),
// with a tail of larger files.
func officeFileSize(rng *rand.Rand) int {
	switch x := rng.Float64(); {
	case x < 0.25:
		return 512 + rng.Intn(512)
	case x < 0.55:
		return 1024 + rng.Intn(3072)
	case x < 0.80:
		return 4096 + rng.Intn(4096)
	case x < 0.95:
		return 8192 + rng.Intn(56<<10)
	default:
		return 64<<10 + rng.Intn(192<<10)
	}
}

// Office replays a synthetic office/engineering trace against the
// file system: short-lived small files created, read whole, sometimes
// overwritten, and deleted when their lifetime expires.
func Office(sys System, opts OfficeOpts) (OfficeResult, error) {
	var res OfficeResult
	if opts.Ops <= 0 || opts.TargetFiles <= 0 || opts.MeanLifetimeOps <= 0 {
		return res, fmt.Errorf("workload: bad office opts %+v", opts)
	}
	rng := newRNG(opts.Seed)
	for u := 0; u < officeUsers; u++ {
		if err := sys.Mkdir(fmt.Sprintf("/u%d", u)); err != nil {
			return res, err
		}
	}
	var live []officeFile
	payload := make([]byte, 256<<10)
	fill(payload, opts.Seed)
	buf := make([]byte, 256<<10)
	nextID := 0
	start := sys.Clock().Now()

	pick := func() int {
		// Hot files cluster at the end of the slice (most recently
		// created), matching temporal locality.
		if rng.Float64() < officeHotBias {
			return len(live) - 1 - rng.Intn(max(len(live)/5, 1))
		}
		return rng.Intn(len(live))
	}

	createOne := func(op int) error {
		p := fmt.Sprintf("/u%d/f%06d", rng.Intn(officeUsers), nextID)
		nextID++
		size := officeFileSize(rng)
		if err := sys.Create(p); err != nil {
			return err
		}
		if err := sys.Write(p, 0, payload[:size]); err != nil {
			return err
		}
		// Geometric-ish lifetime around the mean.
		life := 1 + rng.Intn(2*opts.MeanLifetimeOps)
		live = append(live, officeFile{path: p, size: size, dieAt: op + life})
		res.Creates++
		res.BytesWritten += int64(size)
		return nil
	}

	for op := 0; op < opts.Ops; op++ {
		// Expire due files (scan lazily: check a few random slots).
		for k := 0; k < 3 && len(live) > 0; k++ {
			i := rng.Intn(len(live))
			if live[i].dieAt <= op {
				if err := sys.Remove(live[i].path); err != nil {
					return res, fmt.Errorf("expire %s: %w", live[i].path, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				res.Deletes++
			}
		}
		switch x := rng.Float64(); {
		case len(live) < opts.TargetFiles/4 || len(live) == 0:
			if err := createOne(op); err != nil {
				return res, err
			}
		case x < officeReadFraction:
			f := live[pick()]
			n, err := sys.Read(f.path, 0, buf[:f.size])
			if err != nil {
				return res, fmt.Errorf("read %s: %w", f.path, err)
			}
			res.Reads++
			res.BytesRead += int64(n)
		case x < officeReadFraction+officeOverwriteFraction:
			i := pick()
			f := live[i]
			if err := sys.Write(f.path, 0, payload[:f.size]); err != nil {
				return res, fmt.Errorf("overwrite %s: %w", f.path, err)
			}
			res.Overwrites++
			res.BytesWritten += int64(f.size)
		default:
			if len(live) >= opts.TargetFiles {
				// At population target: replace instead of grow.
				i := pick()
				if err := sys.Remove(live[i].path); err != nil {
					return res, err
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				res.Deletes++
			}
			if err := createOne(op); err != nil {
				return res, err
			}
		}
	}
	if err := sys.Sync(); err != nil {
		return res, err
	}
	res.Elapsed = Phase{
		Name:     "office trace",
		Ops:      opts.Ops,
		Bytes:    res.BytesWritten + res.BytesRead,
		Duration: sys.Clock().Now().Sub(start),
	}
	return res, nil
}
