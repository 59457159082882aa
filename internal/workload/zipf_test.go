package workload_test

import (
	"testing"

	"lfs/internal/workload"
)

// TestZipfOverwriteSkewAndDeterminism: the Zipf load must actually
// skew (the top 1% of files receives far more than 1% of the
// overwrites) and same-seed runs must land on the identical simulated
// timeline — the cleaning curve's reproducibility rests on both.
func TestZipfOverwriteSkewAndDeterminism(t *testing.T) {
	opts := workload.ZipfOpts{
		Files: 400, FileSize: 4096, Overwrites: 1200, Dir: "/z", Seed: 23,
	}
	run := func() workload.ZipfResult {
		res, err := workload.ZipfOverwrite(newLFS(t, 32<<20), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if a.Creates != opts.Files || a.Overwrites != opts.Overwrites {
		t.Fatalf("ops: %d creates, %d overwrites; want %d and %d",
			a.Creates, a.Overwrites, opts.Files, opts.Overwrites)
	}
	if a.HottestShare < 0.10 {
		t.Errorf("top 1%% of files got only %.1f%% of overwrites; the law is not skewed",
			100*a.HottestShare)
	}
	if a.Elapsed <= 0 {
		t.Error("overwrite phase took no simulated time")
	}
	b := run()
	if a != b {
		t.Errorf("same-seed runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestZipfOverwriteRejectsBadLaw: a population of no files has no
// Zipf law to draw from; it must fail, not panic inside math/rand.
func TestZipfOverwriteRejectsBadLaw(t *testing.T) {
	o := workload.ZipfOpts{Files: 0, FileSize: 1024, Overwrites: 1, Dir: "/c", Seed: 1}
	if _, err := workload.ZipfOverwrite(newLFS(t, 16<<20), o); err == nil {
		t.Errorf("opts %+v accepted", o)
	}
}
