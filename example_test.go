package lfs_test

import (
	"errors"
	"fmt"

	"lfs"
)

// Example formats a RAM-backed LFS, does some file work, and looks at
// what the storage manager did under the hood.
func Example() {
	// A 64 MB simulated disk modelled on the paper's WREN IV
	// (1.3 MB/s, 17.5 ms average seek), driven by a virtual clock.
	d := lfs.NewMemDisk(64 << 20)
	cfg := lfs.DefaultConfig()
	if err := lfs.Format(d, cfg); err != nil {
		panic(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}

	// Ordinary file system work. None of this touches the disk
	// synchronously: everything accumulates in the file cache.
	fs.Mkdir("/projects")
	fs.Create("/projects/notes.txt")
	msg := []byte("log-structured storage: the disk is an append-only log\n")
	fs.Write("/projects/notes.txt", 0, msg)
	buf := make([]byte, len(msg))
	n, _ := fs.Read("/projects/notes.txt", 0, buf)
	fmt.Printf("read back %d bytes: %s", n, buf[:n])
	entries, _ := fs.ReadDir("/projects")
	for _, e := range entries {
		fi, _ := fs.Stat("/projects/" + e.Name)
		fmt.Printf("%s ino=%d size=%d\n", e.Name, fi.Ino, fi.Size)
	}

	// Force the log write and a checkpoint, then inspect.
	if err := fs.Unmount(); err != nil {
		panic(err)
	}
	snap := fs.StatsSnapshot()
	fmt.Printf("log units written: %d (%d blocks)\n", snap.Log.UnitsWritten, snap.Log.BlocksWritten)
	fmt.Println("checkpoints:", snap.Log.Checkpoints)
	fmt.Printf("disk writes: %d (%d synchronous)\n", snap.Disk.Writes, snap.Disk.SyncWrites)
	fmt.Println("simulated time:", snap.Time)

	// Remount: recovery reads the checkpoint, not the whole disk.
	fs2, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}
	n, _ = fs2.Read("/projects/notes.txt", 0, buf)
	fmt.Printf("after remount: %s", buf[:n])
	// Output:
	// read back 55 bytes: log-structured storage: the disk is an append-only log
	// notes.txt ino=3 size=55
	// log units written: 3 (8 blocks)
	// checkpoints: 1
	// disk writes: 6 (4 synchronous)
	// simulated time: 199.809242ms
	// after remount: log-structured storage: the disk is an append-only log
}

// Example_crashRecovery shows the paper's §4.4 recovery story: data
// synced to the log after the last checkpoint survives a crash via
// roll-forward; data still in the cache is lost (the bounded
// vulnerability window).
func Example_crashRecovery() {
	d := lfs.NewMemDisk(32 << 20)
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		panic(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}

	fs.Create("/synced")
	fs.Write("/synced", 0, []byte("on disk"))
	fs.Sync() // reaches the log

	fs.Create("/cached") // never leaves the file cache
	fs.Crash()

	recovered, err := lfs.Mount(d, cfg) // reads checkpoints + rolls the log forward
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 16)
	n, _ := recovered.Read("/synced", 0, buf)
	fmt.Println("synced file:", string(buf[:n]))
	_, err = recovered.Stat("/cached")
	fmt.Println("cached file lost:", errors.Is(err, lfs.ErrNotExist))
	// Output:
	// synced file: on disk
	// cached file lost: true
}

// ExampleFS_CleanUntil shows the paper's user-level cleaning trigger:
// after deleting data, explicit cleaning compacts fragmented segments
// back into clean log space.
func ExampleFS_CleanUntil() {
	d := lfs.NewMemDisk(16 << 20)
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 4096
	if err := lfs.Format(d, cfg); err != nil {
		panic(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}
	// Fill a few segments, then delete everything.
	payload := make([]byte, 4096)
	for i := 0; i < 800; i++ {
		p := fmt.Sprintf("/f%d", i)
		fs.Create(p)
		fs.Write(p, 0, payload)
	}
	fs.Sync()
	for i := 0; i < 800; i++ {
		fs.Remove(fmt.Sprintf("/f%d", i))
	}
	fs.Sync()

	res, err := fs.CleanUntil(fs.CleanSegments() + 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("cleaned at least 3 segments:", res.SegmentsCleaned >= 3)
	fmt.Println("dead blocks copied:", res.LiveCopied > res.BlocksExamined/2)
	// The checker recounts the usage array the cleaner acted on.
	rep, err := fs.Check()
	if err != nil {
		panic(err)
	}
	fmt.Println("check clean:", rep.Ok())
	// Output:
	// cleaned at least 3 segments: true
	// dead blocks copied: false
	// check clean: true
}

// Example_tracing shows the observability subsystem: attach a
// TraceRecorder through Config.Trace and every VFS operation becomes a
// span while every disk request carries an IOCause, so disk busy time
// decomposes exactly into the paper's categories.
func Example_tracing() {
	rec := lfs.NewTraceRecorder()
	d := lfs.NewMemDisk(16 << 20)
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	cfg.Trace = rec
	if err := lfs.Format(d, cfg); err != nil {
		panic(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}
	fs.Create("/f")
	fs.Write("/f", 0, make([]byte, 32<<10))
	fs.Sync()

	agg := rec.Aggregates()
	for _, op := range agg.Ops {
		fmt.Printf("%s x%d\n", op.Op, op.Count)
	}
	named, total := agg.AttributedBusy()
	fmt.Println("disk time fully attributed:", total > 0 && named == total)
	// A trace can also be exported line-by-line with rec.WriteJSONL and
	// summarised offline by cmd/lfstrace.

	// Output:
	// create x1
	// sync x1
	// write x1
	// disk time fully attributed: true
}

// ExampleFS_StatsSnapshot shows the race-safe statistics surface: one
// call copies the log, disk, cache, and CPU counters atomically, so
// derived ratios are consistent even while a workload runs.
func ExampleFS_StatsSnapshot() {
	d := lfs.NewMemDisk(16 << 20)
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		panic(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}
	fs.Create("/f")
	fs.Write("/f", 0, make([]byte, 64<<10))
	fs.Sync()
	snap := fs.StatsSnapshot()
	fmt.Println("log units written:", snap.Log.UnitsWritten > 0)
	fmt.Println("disk busy:", snap.Disk.BusyTime > 0)
	fmt.Println("write cost before cleaning:", snap.WriteCost() == 0)
	// Output:
	// log units written: true
	// disk busy: true
	// write cost before cleaning: true
}

// ExampleFS_Stats shows the log-level instrumentation.
func ExampleFS_Stats() {
	d := lfs.NewMemDisk(16 << 20)
	cfg := lfs.DefaultConfig()
	cfg.MaxInodes = 1024
	if err := lfs.Format(d, cfg); err != nil {
		panic(err)
	}
	fs, err := lfs.Mount(d, cfg)
	if err != nil {
		panic(err)
	}
	fs.Create("/f")
	fs.Write("/f", 0, make([]byte, 64<<10))
	fs.Sync()
	st := fs.Stats()
	fmt.Println("log units written:", st.UnitsWritten > 0)
	fmt.Println("write amplification sane:", st.WriteAmplification(cfg.BlockSize) >= 1)
	// Output:
	// log units written: true
	// write amplification sane: true
}
