package workload

import (
	"fmt"
)

// FragmentOpts parameterises the Figure 5 fragmentation load: many
// small files are created and a fixed fraction deleted, leaving every
// segment at roughly the same utilization.
type FragmentOpts struct {
	// NumFiles is how many 1-block files to create.
	NumFiles int
	// FileSize is the per-file payload (1 KB in the paper).
	FileSize int
	// KeepFraction is the fraction of files that survive; the
	// segments' utilization at cleaning time approximates it.
	KeepFraction float64
	// Dir is the working directory.
	Dir string
	// Seed drives the interleaving of deletions.
	Seed int64
}

// Fragment creates the files, syncs, then deletes an evenly spread
// (1-KeepFraction) of them and syncs again. Deletions are spread
// uniformly across creation order so every segment ends up at about
// KeepFraction utilization — the paper's worst-case "all segments
// equally fragmented" setup.
func Fragment(sys System, opts FragmentOpts) error {
	if opts.NumFiles <= 0 || opts.FileSize <= 0 || opts.KeepFraction < 0 || opts.KeepFraction > 1 {
		return fmt.Errorf("workload: bad fragment opts %+v", opts)
	}
	if err := sys.Mkdir(opts.Dir); err != nil {
		return err
	}
	names := fileNames(opts.Dir, opts.NumFiles)
	payload := make([]byte, opts.FileSize)
	fill(payload, opts.Seed)
	for i := 0; i < opts.NumFiles; i++ {
		if err := sys.Create(names[i]); err != nil {
			return err
		}
		if err := sys.Write(names[i], 0, payload); err != nil {
			return err
		}
	}
	if err := sys.Sync(); err != nil {
		return err
	}
	// Evenly spread deletions: keep file i iff its position in the
	// [0,1) unit interval falls below KeepFraction.
	acc := 0.0
	for i := 0; i < opts.NumFiles; i++ {
		acc += opts.KeepFraction
		if acc >= 1.0 {
			acc -= 1.0
			continue // keep
		}
		if err := sys.Remove(names[i]); err != nil {
			return err
		}
	}
	return sys.Sync()
}
