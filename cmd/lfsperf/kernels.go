package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lfs/internal/cache"
	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sched"
	"lfs/internal/shard"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// A kernel is a tight loop over one layer's public function, with
// inputs shaped like the workload that leans on it. Kernels run after
// the traced repetition; they give each layer a number of its own, so
// a change to one layer shows there before (and whether or not) it
// shows end to end.

// sink keeps kernel results alive so the compiler cannot drop the call.
var sink uint64

// kernels runs the kernels; div divides every iteration count (1 in the
// benchmark, more in tests).
type kernels struct{ div int }

// time times fn: one warm-up batch, then three batches of n calls.
// It returns the fastest batch's host nanoseconds per call and the
// last batch's allocations per call.
func (k kernels) time(n int, fn func(i int)) (ns, allocs float64) {
	n = max(n/k.div, 1)
	batch := func() time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return time.Since(t0)
	}
	batch()
	best := time.Duration(1<<63 - 1)
	var m0, m1 runtime.MemStats
	for b := 0; b < 3; b++ {
		runtime.ReadMemStats(&m0)
		d := batch()
		runtime.ReadMemStats(&m1)
		best = min(best, d)
	}
	return float64(best) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// run fills in every kernel metric. scratch is a directory for
// the file-backed store images.
func (k kernels) run(v map[string]float64, scratch string) error {
	v["vfs.split_path.host_ns"], _ = k.time(100000, func(i int) {
		parts, _ := vfs.SplitPath("/small1k/f004242")
		sink += uint64(len(parts))
	})
	k.layout(v)
	k.cache(v)
	if err := k.disk(v); err != nil {
		return err
	}
	if err := k.store(v, scratch); err != nil {
		return err
	}

	// sched: schedule and dispatch one event.
	loop := sched.NewLoop(sim.NewClock(), 1)
	v["sched.dispatch.host_ns"], v["sched.dispatch.allocs"] = k.time(100000, func(i int) {
		loop.After(sim.Duration(i%7), "k", func() { sink++ })
		loop.Step()
	})

	// shard: route one path.
	sfs, err := shard.NewMem(4, 64<<20, shard.Options{Base: core.DefaultConfig()})
	if err != nil {
		return fmt.Errorf("shard kernel: %w", err)
	}
	v["shard.shard_for.host_ns"], _ = k.time(200000, func(i int) {
		s, _ := sfs.ShardFor("/client07/f003")
		sink += uint64(s)
	})

	// obs: what the file system pays per operation with a recorder
	// attached — build the phase list and append the span. The
	// recorder is bounded so the kernel measures recording, not the
	// growth of a slice.
	rec := obs.NewRecorderLimit(1 << 16)
	v["obs.span_record.host_ns"], v["obs.span_record.allocs"] = k.time(200000, func(i int) {
		var acc obs.PhaseAccum
		acc.Add(obs.PhaseQueueWait, 3*sim.Millisecond)
		acc.AddService(disk.CauseLogAppend, 20*sim.Millisecond)
		t := sim.Time(i) * sim.Time(sim.Second)
		rec.Span(obs.Span{Op: "fsync", Path: "/client07/f003", Start: t, End: t.Add(25 * sim.Millisecond),
			CPU: 2000, Client: 7, Shard: 2, Phases: acc.Phases(25 * sim.Millisecond)})
	})
	return nil
}

// layout: the codecs the small-file path spends its host time
// in. The directory block is a full 4 KB block of smallfile's names.
func (k kernels) layout(v map[string]float64) {
	in := layout.NewInode(4242, layout.ModeFile|0o644)
	in.Size = 1024
	in.Direct[0] = 12345
	rec := make([]byte, layout.InodeSize)
	v["layout.inode_encode.host_ns"], _ = k.time(200000, func(i int) {
		in.Mtime = int64(i)
		in.Encode(rec)
	})
	v["layout.inode_decode.host_ns"], _ = k.time(200000, func(i int) {
		got, _ := layout.DecodeInode(rec)
		sink += uint64(got.Size)
	})

	full := make([]byte, 4096)
	layout.InitDirBlock(full)
	var names []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("f%06d", i)
		ok, err := layout.DirBlockInsert(full, layout.DirEntry{Ino: layout.Ino(i + 2), Name: name})
		if err != nil || !ok {
			break
		}
		names = append(names, name)
	}
	// One entry short of full, so an insert always has room.
	room := append([]byte(nil), full...)
	last := names[len(names)-1]
	if _, err := layout.DirBlockRemove(room, last); err != nil {
		return
	}
	scratch := make([]byte, 4096)
	v["layout.dir_find.host_ns"], _ = k.time(2000, func(i int) {
		ino, _, _ := layout.DirBlockFind(full, names[i%len(names)])
		sink += uint64(ino)
	})
	v["layout.dir_insert.host_ns"], _ = k.time(2000, func(i int) {
		copy(scratch, room)
		ok, _ := layout.DirBlockInsert(scratch, layout.DirEntry{Ino: 7, Name: last})
		if ok {
			sink++
		}
	})
	v["layout.dir_entries.host_ns"], v["layout.dir_entries.allocs"] = k.time(2000, func(i int) {
		es, _ := layout.DirBlockEntries(full)
		sink += uint64(len(es))
	})

	block := make([]byte, 4096)
	for i := range block {
		block[i] = byte(i * 31)
	}
	v["layout.checksum_4k.host_ns"], _ = k.time(100000, func(i int) { sink += uint64(layout.Checksum(block)) })
	v["layout.data_checksum_4k.host_ns"], _ = k.time(100000, func(i int) { sink += uint64(layout.DataChecksum(block)) })
	// 25600 blocks is largefile's 100 MB file: direct, single and
	// double indirect paths all occur.
	v["layout.map_block.host_ns"], _ = k.time(1000000, func(i int) {
		p, _ := layout.MapBlock(int64(i%25600), 4096)
		sink += uint64(p.Inner)
	})
}

// cache: the paper-sized cache (3840 blocks of 4 KB) as
// largefile drives it — hits, steady eviction — and the whole-cache
// scan smallfile's delete phase pays per file.
func (k kernels) cache(v map[string]float64) {
	const blocks = 3840
	key := func(i int) cache.Key { return cache.Key{Kind: cache.KindFile, Ino: 9, Off: int64(i)} }
	c := cache.New(blocks, 4096)
	for i := 0; i < blocks; i++ {
		c.Add(key(i))
	}
	v["cache.get_hit.host_ns"], _ = k.time(500000, func(i int) {
		if b := c.Get(key(i % blocks)); b != nil {
			sink++
		}
	})
	next := blocks
	v["cache.churn.host_ns"], v["cache.churn.allocs"] = k.time(100000, func(i int) {
		c.Add(key(next))
		next++
	})
	victim := cache.Key{Kind: cache.KindFile, Ino: 10, Off: 0}
	v["cache.remove_matching.host_ns"], _ = k.time(2000, func(i int) {
		c.Add(victim)
		sink += uint64(c.RemoveMatching(func(k cache.Key) bool { return k.Ino == victim.Ino }))
	})
}

// disk: one request through the service-time model and the
// queue, on a memory store — a block and a whole segment.
func (k kernels) disk(v map[string]float64) error {
	d := disk.NewMem(64<<20, sim.NewClock())
	var failed error
	request := func(size int) func(i int) {
		buf := make([]byte, size)
		span := d.Sectors() - int64(size/disk.SectorSize)
		return func(i int) {
			sector := int64(i) * int64(size/disk.SectorSize) % span
			var err error
			if i%2 == 0 {
				err = d.WriteSectors(sector, buf, false, disk.CauseTool, "kernel")
			} else {
				err = d.ReadSectors(sector, buf, disk.CauseTool, "kernel")
			}
			if err != nil {
				failed = err
			}
		}
	}
	v["disk.request_4k.host_ns"], _ = k.time(100000, request(4096))
	v["disk.request_1m.host_ns"], _ = k.time(400, request(1<<20))
	if failed != nil {
		return fmt.Errorf("disk kernel: %w", failed)
	}
	return nil
}

// store: each backend's steady-state throughput, 16 MB rewritten
// and read back in segment-sized calls after one warming pass (so the
// figure is the copy, not the first touch of fresh memory). A backend
// the platform lacks reads 0.
func (k kernels) store(v map[string]float64, scratch string) error {
	const chunk = 1 << 20
	size := int64(max(16/k.div, 1)) * chunk
	dir, err := os.MkdirTemp(scratch, "stores")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i * 17)
	}
	for _, b := range []disk.StoreBackend{disk.BackendMem, disk.BackendCow, disk.BackendFile, disk.BackendMmap} {
		st, err := disk.OpenStore(disk.StoreOptions{Backend: b, Path: filepath.Join(dir, b.String()+".img"), Capacity: size})
		if err != nil {
			continue
		}
		var failed error
		pass := func(int) {
			for off := int64(0); off < size && failed == nil; off += chunk {
				if failed = st.WriteAt(buf, off); failed == nil {
					failed = st.ReadAt(buf, off)
				}
			}
		}
		ns, _ := kernels{1}.time(1, pass)
		if err := st.Close(); err != nil && failed == nil {
			failed = err
		}
		if failed != nil {
			return fmt.Errorf("store kernel %s: %w", b, failed)
		}
		v["store."+b.String()+".mb_per_s"] = ratio(2*float64(size/chunk), ns/1e9)
	}
	return nil
}
