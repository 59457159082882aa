// Cleanerlab drives an LFS volume toward full utilization and shows
// the segment cleaner (§4.3) at work: how fragmented segments are
// selected, how liveness is decided through versions and inode walks,
// and how the cleaning cost rises with the utilization of the
// segments cleaned (the effect behind Figure 5).
package main

import (
	"fmt"
	"log"

	"lfs"
)

func main() {
	const capacity = 32 << 20
	d := lfs.NewMemDisk(capacity)
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 16384
	if err := lfs.Format(d, cfg); err != nil {
		log.Fatal(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		log.Fatal(err)
	}

	payload := make([]byte, 4096)
	name := func(gen, i int) string { return fmt.Sprintf("/g%d-f%04d", gen, i) }

	fmt.Printf("disk: %d MB, %d segments of %d KB\n\n",
		capacity>>20, capacity/cfg.SegmentSize, cfg.SegmentSize>>10)

	// Generation 0: fill a large part of the disk.
	const filesPerGen = 3500
	for i := 0; i < filesPerGen; i++ {
		if err := fs.Create(name(0, i)); err != nil {
			log.Fatal(err)
		}
		if err := fs.Write(name(0, i), 0, payload); err != nil {
			log.Fatal(err)
		}
	}
	if err := fs.Sync(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after generation 0: %2d clean segments, %5.1f MB live\n",
		fs.CleanSegments(), float64(fs.LiveBytes())/(1<<20))

	// Delete 70%: segments become fragmented (30% utilised).
	for i := 0; i < filesPerGen; i++ {
		if i%10 < 7 {
			if err := fs.Remove(name(0, i)); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after deleting 70%%:  %2d clean segments, %5.1f MB live (segments are fragmented)\n",
		fs.CleanSegments(), float64(fs.LiveBytes())/(1<<20))

	// Explicit cleaning, the paper's user-level trigger ("cleaning
	// can be initiated at night or other times of slack usage").
	before := d.Clock().Now()
	res, err := fs.CleanUntil(fs.CleanSegments() + 8)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := d.Clock().Now().Sub(before)
	fmt.Printf("\ncleaner run:\n")
	fmt.Printf("  segments cleaned:   %d\n", res.SegmentsCleaned)
	fmt.Printf("  blocks examined:    %d\n", res.BlocksExamined)
	fmt.Printf("  live blocks copied: %d (%.0f%% of examined)\n",
		res.LiveCopied, 100*float64(res.LiveCopied)/float64(max(res.BlocksExamined, 1)))
	fmt.Printf("  net space reclaimed: %.1f MB in %v (%.0f KB/s)\n",
		float64(res.BytesReclaimed)/(1<<20), elapsed,
		float64(res.BytesReclaimed)/1024/elapsed.Seconds())
	fmt.Printf("  clean segments now: %d\n", fs.CleanSegments())

	// Keep churning beyond the disk's raw capacity: each new file
	// replaces its predecessor from the previous generation (short
	// lifetimes, as in the paper's workload), so live data stays
	// bounded while the log wraps the disk several times — which
	// only works because the cleaner keeps reclaiming dead
	// segments.
	for gen := 1; gen <= 3; gen++ {
		for i := 0; i < filesPerGen; i++ {
			prev := name(gen-1, i)
			if _, err := fs.Stat(prev); err == nil {
				if err := fs.Remove(prev); err != nil {
					log.Fatal(err)
				}
			}
			if err := fs.Create(name(gen, i)); err != nil {
				log.Fatal(err)
			}
			if err := fs.Write(name(gen, i), 0, payload); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := fs.Sync(); err != nil {
		log.Fatal(err)
	}
	st := fs.StatsSnapshot().Log
	fmt.Printf("\nafter 3 more generations of churn (log wrapped the disk several times):\n")
	fmt.Printf("  cleaner activations: %d\n", st.CleanerRuns)
	fmt.Printf("  segments cleaned:    %d\n", st.SegmentsCleaned)
	fmt.Printf("  blocks examined:     %d, live copied: %d\n", st.CleanerBlocksExamined, st.CleanerLiveCopied)
	fmt.Printf("  checkpoints:         %d\n", st.Checkpoints)

	// Everything still consistent?
	rep, err := fs.Check()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  lfsck: %d files, %d problems\n", rep.Files, len(rep.Problems))
	if !rep.Ok() {
		log.Fatalf("lfsck: %q", rep.Problems)
	}
}
