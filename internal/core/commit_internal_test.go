package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"lfs/internal/layout"
)

// Tests of the commit unit: the batches of an fsync or FlushAsync share
// one log unit per head, while every other flush writes a unit per batch.

// unitKinds returns the kind of each entry of u's summary, in order.
func unitKinds(u loggedUnit) []blockKind {
	kinds := make([]blockKind, len(u.refs))
	for i, r := range u.refs {
		kinds[i] = r.Kind
	}
	return kinds
}

// TestFsyncWritesOneUnit: a per-file fsync of a file with an indirect
// block logs its data, its indirect block and its inode under one
// summary.
func TestFsyncWritesOneUnit(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	bs := fs.cfg.BlockSize
	must(t, fs.Create("/f"))
	must(t, fs.Sync())
	must(t, fs.Write("/f", 0, make([]byte, bs)))
	must(t, fs.Write("/f", int64(layout.NDirect*bs), make([]byte, bs))) // past the direct pointers
	since := fs.writeSerial
	must(t, fs.FsyncFile("/f"))
	units := writtenSince(t, fs, since)
	if len(units) != 1 {
		t.Fatalf("fsync wrote %d units, want 1", len(units))
	}
	want := []blockKind{kindData, kindData, kindIndirect, kindInodes}
	if got := unitKinds(units[0]); !slices.Equal(got, want) {
		t.Errorf("fsync unit holds %v, want %v", got, want)
	}
	if err := units[0].checkData(); err != nil {
		t.Errorf("fsync unit: %v", err)
	}
}

// TestGroupCommitSpillsPastFullSummary: a group commit whose data batch
// fills the summary block it reserved puts its inode blocks in a second
// unit, and the volume recovers from both.
func TestGroupCommitSpillsPastFullSummary(t *testing.T) {
	cfg := smallConfig()
	cfg.GroupCommit = true
	fs := newTestFS(t, 64<<20, cfg)
	bs := fs.cfg.BlockSize
	perSummary := (bs - summaryHeaderSize) / summaryEntrySize
	paths := make([]string, perSummary)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%03d", i)
		must(t, fs.Create(paths[i]))
	}
	must(t, fs.Sync())
	for i, p := range paths {
		must(t, fs.Write(p, 0, bytes.Repeat([]byte{byte(i)}, bs)))
	}
	since := fs.writeSerial
	must(t, fs.FsyncFile(paths[0]))
	units := writtenSince(t, fs, since)
	if len(units) != 2 || units[0].NBlocks != perSummary || units[0].SumBlocks != 1 {
		t.Fatalf("group commit of %d one-block files wrote %d units, want a full one-summary data unit and an inode unit", perSummary, len(units))
	}
	if got := unitKinds(units[1]); slices.ContainsFunc(got, func(k blockKind) bool { return k != kindInodes }) {
		t.Errorf("second unit holds %v, want inode blocks only", got)
	}

	fs.Crash()
	fs2, err := Mount(fs.d, cfg)
	must(t, err)
	rep, err := fs2.Check()
	must(t, err)
	if !rep.Ok() {
		t.Fatalf("recovered volume: %v", rep.Problems)
	}
	buf := make([]byte, bs)
	for i, p := range paths {
		if _, err := fs2.Read(p, 0, buf); err != nil || buf[0] != byte(i) || buf[bs-1] != byte(i) {
			t.Fatalf("recovered %s: %v, first byte %d, want %d", p, err, buf[0], i)
		}
	}
}

// TestSyncWritesUnitPerBatch holds the commit unit's scope: a Sync still
// writes its data and its inodes as separate units. One unit per flush
// waits for lfsperf's frozen phase oracles to give way to
// bench_results.txt (ROADMAP item 7), since it moves Figures 3 and 4.
func TestSyncWritesUnitPerBatch(t *testing.T) {
	fs := newTestFS(t, 16<<20, smallConfig())
	must(t, fs.Create("/f"))
	must(t, fs.Sync())
	must(t, fs.Write("/f", 0, make([]byte, fs.cfg.BlockSize)))
	since := fs.writeSerial
	must(t, fs.Sync())
	units := writtenSince(t, fs, since)
	if len(units) != 2 {
		t.Fatalf("sync wrote %d units, want 2 (data, inodes)", len(units))
	}
	for i, want := range [][]blockKind{{kindData}, {kindInodes}} {
		if got := unitKinds(units[i]); !slices.Equal(got, want) {
			t.Errorf("sync unit %d holds %v, want %v", i, got, want)
		}
	}
}
