package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

// writeFiles creates and writes n small files, returning their paths.
func writeFiles(t *testing.T, fs *core.FS, n int) []string {
	t.Helper()
	paths := make([]string, n)
	data := make([]byte, 4096)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%02d", i)
		if err := fs.Create(paths[i]); err != nil {
			t.Fatal(err)
		}
		if err := fs.Write(paths[i], 0, data); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestGroupCommitPiggyback verifies the group-commit contract: the
// first fsync of a batch flushes everyone's dirty data, and the
// remaining fsyncs piggyback (no further log writes).
func TestGroupCommitPiggyback(t *testing.T) {
	cfg := testConfig()
	cfg.GroupCommit = true
	_, fs := newPair(t, 64<<20, cfg)
	paths := writeFiles(t, fs, 8)

	before := fs.Stats()
	for _, p := range paths {
		if err := fs.FsyncFile(p); err != nil {
			t.Fatal(err)
		}
	}
	after := fs.Stats()
	if got := after.GroupCommits - before.GroupCommits; got != 1 {
		t.Errorf("group commits %d, want 1 (one flush for the whole batch)", got)
	}
	if got := after.PiggybackedSyncs - before.PiggybackedSyncs; got != 7 {
		t.Errorf("piggybacked syncs %d, want 7", got)
	}
	// The whole batch rides one flush, and a commit's batches share
	// one log unit.
	if got := after.UnitsWritten - before.UnitsWritten; got != 1 {
		t.Errorf("log units written %d, want 1", got)
	}

	// A dirty file fsynced after the batch starts a new group commit.
	if err := fs.Write(paths[0], 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.FsyncFile(paths[0]); err != nil {
		t.Fatal(err)
	}
	if got := fs.Stats().GroupCommits - after.GroupCommits; got != 1 {
		t.Errorf("post-batch group commits %d, want 1", got)
	}
}

// TestGroupCommitCheaperThanPerFileFsync verifies group commit reduces
// total disk write traffic for the same interleaved workload: N small
// writes each followed (later) by an fsync.
func TestGroupCommitCheaperThanPerFileFsync(t *testing.T) {
	run := func(group bool) disk.Stats {
		cfg := testConfig()
		cfg.GroupCommit = group
		d, fs := newPair(t, 64<<20, cfg)
		paths := writeFiles(t, fs, 8)
		for _, p := range paths {
			if err := fs.FsyncFile(p); err != nil {
				t.Fatal(err)
			}
		}
		return d.Stats()
	}
	per := run(false)
	grp := run(true)
	if grp.Writes >= per.Writes {
		t.Errorf("group commit issued %d write requests, per-file fsync %d; want fewer", grp.Writes, per.Writes)
	}
	if grp.BusyTime >= per.BusyTime {
		t.Errorf("group commit busy %v, per-file fsync %v; want less", grp.BusyTime, per.BusyTime)
	}
}

// TestGroupCommitDurability verifies data synced through the group
// path survives a crash, including piggybacked files.
func TestGroupCommitDurability(t *testing.T) {
	cfg := testConfig()
	cfg.GroupCommit = true
	d, fs := newPair(t, 64<<20, cfg)
	paths := writeFiles(t, fs, 4)
	for _, p := range paths {
		if err := fs.FsyncFile(p); err != nil {
			t.Fatal(err)
		}
	}
	fs.Crash()
	fs2, err := core.Mount(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for _, p := range paths {
		n, err := fs2.Read(p, 0, buf)
		if err != nil {
			t.Fatalf("after crash, read %s: %v", p, err)
		}
		if n != len(buf) {
			t.Errorf("after crash, %s has %d bytes, want %d", p, n, len(buf))
		}
	}
}

// TestCommitAllOrNothing: a commit's write that a crash tears or loses
// leaves the file as it was last synced, on a volume that checks clean,
// and one that reaches the disk survives the crash whole. The medium
// starts out holding stale bytes, so a tear that loses only the write's
// last sector still leaves different bytes there.
func TestCommitAllOrNothing(t *testing.T) {
	faults := []struct {
		name   string
		inject func(*disk.Disk)
	}{
		{"none", func(*disk.Disk) {}},
		{"torn", tearNextWrite},
		{"torn-tail", func(d *disk.Disk) { d.SetFaultPolicy(&tearOnce{lose: 1}) }},
		{"lost", func(d *disk.Disk) { d.SetFaultPolicy(&disk.CrashPlan{CutWrite: 1}) }},
	}
	for _, group := range []bool{false, true} {
		for _, f := range faults {
			t.Run(fmt.Sprintf("group=%v/%s", group, f.name), func(t *testing.T) {
				cfg := testConfig()
				cfg.GroupCommit = group
				d := disk.NewMem(16<<20, sim.NewClock())
				if err := d.Store().WriteAt(bytes.Repeat([]byte{0xA5}, int(d.Store().Size())), 0); err != nil {
					t.Fatal(err)
				}
				if err := core.Format(d, cfg); err != nil {
					t.Fatal(err)
				}
				fs, err := core.Mount(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				old, fresh := bytes.Repeat([]byte{1}, 3*4096), bytes.Repeat([]byte{2}, 3*4096)
				if err := fs.Create("/f"); err != nil {
					t.Fatal(err)
				}
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}
				for i, data := range [][]byte{old, fresh} {
					if err := fs.Write("/f", 0, data); err != nil {
						t.Fatal(err)
					}
					if i == 1 {
						f.inject(d)
					}
					_ = fs.FsyncFile("/f") // a lost write may fail the commit
				}
				fs.Crash()
				d.Thaw()
				d.SetFaultPolicy(nil)
				fs2, err := core.Mount(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := fresh
				if f.name != "none" {
					want = old
				}
				got := make([]byte, len(want))
				if _, err := fs2.Read("/f", 0, got); err != nil || !bytes.Equal(got, want) {
					t.Errorf("after the crash /f reads %d... (%v), want %d...", got[0], err, want[0])
				}
				rep, err := fs2.Check()
				if err != nil || !rep.Ok() {
					t.Errorf("recovered volume: %v %v", err, rep)
				}
			})
		}
	}
}

// TestClientAttributionInSpans verifies SetClient flows into spans and
// disk events.
func TestClientAttributionInSpans(t *testing.T) {
	cfg := testConfig()
	rec := obs.NewRecorder()
	cfg.Trace = rec
	_, fs := newPair(t, 64<<20, cfg)
	fs.SetClient(5)
	if err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.SetClient(0)
	spans := rec.Spans()
	var saw bool
	for _, s := range spans {
		if s.Op == "create" && s.Client == 5 {
			saw = true
		}
	}
	if !saw {
		t.Errorf("no create span attributed to client 5: %+v", spans)
	}
	var sawIO bool
	for _, ev := range rec.Events() {
		if ev.Kind == disk.OpWrite && ev.Client == 5 {
			sawIO = true
		}
	}
	if !sawIO {
		t.Errorf("no disk write attributed to client 5")
	}
}
