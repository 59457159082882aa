// Crashrecovery demonstrates §4.4 of the paper: LFS recovers from a
// crash by reading the newest checkpoint region and rolling the log
// tail forward through the segment summaries — never scanning the
// disk — while the update-in-place baseline needs an fsck pass whose
// cost grows with the volume.
//
// The crash here is not a polite shutdown: a fault-injection policy on
// the simulated disk cuts power in the middle of a write, tearing it
// at a sector boundary, exactly the failure a real disk hands a file
// system. A final sweep replays the same workload once per disk write,
// cutting power during each one, and verifies recovery at every point.
package main

import (
	"errors"
	"fmt"
	"log"

	"lfs"
	"lfs/internal/disk"
	"lfs/internal/fstest"
)

func main() {
	const capacity = 128 << 20
	d := lfs.NewMemDisk(capacity)
	cfg := lfs.DefaultConfig()
	if err := lfs.Format(d, cfg); err != nil {
		log.Fatal(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Work before the checkpoint: durable no matter what.
	if err := fs.Create("/ledger"); err != nil {
		log.Fatal(err)
	}
	if err := fs.Write("/ledger", 0, []byte("balance: 1000")); err != nil {
		log.Fatal(err)
	}
	if err := fs.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint taken with /ledger on disk")

	// Work after the checkpoint, synced to the log but never
	// checkpointed: recoverable only by roll-forward.
	if err := fs.Create("/journal"); err != nil {
		log.Fatal(err)
	}
	if err := fs.Write("/journal", 0, []byte("entry: +250")); err != nil {
		log.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote and synced /journal after the checkpoint")

	// Now arm the fault policy: power dies during the next disk
	// write, which persists only a torn prefix. The next checkpoint
	// attempt (trying to make /scratch durable) is the victim, so
	// /scratch never reaches the log and the checkpoint regions still
	// describe the pre-/journal state.
	d.SetFaultPolicy(&disk.CrashPlan{CutWrite: 1, TearFatalWrite: true})
	if err := fs.Create("/scratch"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("created /scratch (still only in the cache)")

	fmt.Println("\n*** POWER CUT (write torn at a sector boundary) ***")
	if err := fs.Checkpoint(); !errors.Is(err, disk.ErrPowerLoss) {
		log.Fatalf("expected power loss during the checkpoint, got %v", err)
	}

	// Power comes back: the disk thaws with whatever the platters
	// held, and mount runs crash recovery.
	d.Thaw()
	d.SetFaultPolicy(nil)
	before := d.Clock().Now()
	recovered, err := lfs.Mount(d, cfg)
	if err != nil {
		log.Fatal(err)
	}
	mountTime := d.Clock().Now().Sub(before)
	fmt.Printf("\nremounted in %v of simulated time (%d log units rolled forward)\n",
		mountTime, recovered.StatsSnapshot().Log.RollForwardUnits)

	show := func(path string) {
		buf := make([]byte, 64)
		n, err := recovered.Read(path, 0, buf)
		switch {
		case err == nil:
			fmt.Printf("  %-10s recovered: %q\n", path, buf[:n])
		case errors.Is(err, lfs.ErrNotExist):
			fmt.Printf("  %-10s lost (was only in the cache)\n", path)
		default:
			fmt.Printf("  %-10s error: %v\n", path, err)
		}
	}
	show("/ledger")
	show("/journal")
	show("/scratch")

	// Consistency check after recovery.
	rep, err := recovered.Check()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlfsck: %d files, %d dirs, problems: %d\n", rep.Files, rep.Dirs, len(rep.Problems))
	if !rep.Ok() {
		log.Fatalf("lfsck: %q", rep.Problems)
	}

	// One lucky crash point proves little. Sweep them all: replay the
	// same kind of workload once per disk write, cut power during each
	// write in turn, and verify recovery (checkpoint load,
	// roll-forward, tree consistency, durability of checkpointed
	// files) at every single point.
	sweepCfg := lfs.DefaultConfig()
	sweepCfg.SegmentSize = 64 << 10
	sweepCfg.CacheBlocks = 64
	sweepCfg.MaxInodes = 512
	sweep, err := fstest.RunCrashPoints(fstest.CrashConfig{
		FSConfig:     sweepCfg,
		DiskCapacity: 8 << 20,
		Workload:     fstest.MixedWorkload(24, sweepCfg.BlockSize),
		Torn:         true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncrash-point sweep: %d crash points (%d needed roll-forward), %d recovery failures\n",
		sweep.Points, sweep.RollForwardPoints, len(sweep.Failures))
	for _, f := range sweep.Failures {
		fmt.Printf("  FAILURE: %s\n", f.String())
	}

	// The baseline's alternative: a full-disk scan.
	fd := lfs.NewMemDisk(capacity)
	fcfg := lfs.DefaultBaselineConfig()
	if err := lfs.FormatBaseline(fd, fcfg); err != nil {
		log.Fatal(err)
	}
	bfs, err := lfs.MountBaseline(fd, fcfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := bfs.Create("/f"); err != nil {
		log.Fatal(err)
	}
	if err := bfs.Sync(); err != nil {
		log.Fatal(err)
	}
	bfs.Crash()
	rep2, err := lfs.FsckBaseline(fd, fcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfor comparison, FFS fsck of the same-size disk, which reads every inode table: %v\n",
		rep2.Duration)
	fmt.Printf("LFS recovery was %.0fx faster\n", float64(rep2.Duration)/float64(mountTime))
}
