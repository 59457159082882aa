package workload

import (
	"fmt"
)

// SmallFileOpts parameterises the Figure 3 workload.
type SmallFileOpts struct {
	// NumFiles is how many files to create (10000 in the paper for
	// 1 KB files, 1000 for 10 KB files — 10 MB of data either way).
	NumFiles int
	// FileSize is the per-file payload (1 KB or 10 KB).
	FileSize int
	// Dir is the directory the files go in; created if missing.
	Dir string
	// Seed drives the deterministic payload pattern, so reruns are
	// bit-identical and configs can vary the data independently.
	Seed int64
}

// DefaultSmallFile1K returns the paper's 10000 × 1 KB configuration.
func DefaultSmallFile1K() SmallFileOpts {
	return SmallFileOpts{NumFiles: 10000, FileSize: 1024, Dir: "/small1k", Seed: 42}
}

// SmallFileResult holds the three measured phases of Figure 3.
type SmallFileResult struct {
	Create Phase
	Read   Phase
	Delete Phase
}

// SmallFile runs the small-file test of §5.1: create NumFiles files of
// FileSize bytes, flush the file cache, read them all in creation
// order, then delete them all. The create and delete phases end with
// a Sync, so each pays for its own disk traffic. Results are files per
// second per phase.
func SmallFile(sys System, opts SmallFileOpts) (SmallFileResult, error) {
	var res SmallFileResult
	if opts.NumFiles <= 0 || opts.FileSize <= 0 {
		return res, fmt.Errorf("workload: bad small-file opts %+v", opts)
	}
	if err := sys.Mkdir(opts.Dir); err != nil {
		return res, err
	}
	names := fileNames(opts.Dir, opts.NumFiles)
	payload := make([]byte, opts.FileSize)
	fill(payload, opts.Seed)
	totalBytes := int64(opts.NumFiles) * int64(opts.FileSize)

	var err error
	res.Create, err = measure(sys, "create", opts.NumFiles, totalBytes, func() error {
		for i := 0; i < opts.NumFiles; i++ {
			if err := sys.Create(names[i]); err != nil {
				return err
			}
			if err := sys.Write(names[i], 0, payload); err != nil {
				return err
			}
		}
		return sys.Sync()
	})
	if err != nil {
		return res, err
	}

	// "Following the creation, the file cache was flushed and all
	// the files were read (in the same order as they were
	// created)."
	sys.DropCaches()
	buf := make([]byte, opts.FileSize)
	res.Read, err = measure(sys, "read", opts.NumFiles, totalBytes, func() error {
		for i := 0; i < opts.NumFiles; i++ {
			n, err := sys.Read(names[i], 0, buf)
			if err != nil {
				return err
			}
			if n != opts.FileSize {
				return fmt.Errorf("short read of %s: %d", names[i], n)
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}

	res.Delete, err = measure(sys, "delete", opts.NumFiles, totalBytes, func() error {
		for i := 0; i < opts.NumFiles; i++ {
			if err := sys.Remove(names[i]); err != nil {
				return err
			}
		}
		return sys.Sync()
	})
	return res, err
}
