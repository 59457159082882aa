package main

import (
	"fmt"
	"math/rand"

	"lfs/internal/core"
	"lfs/internal/server"
	"lfs/internal/sim"
	wl "lfs/internal/workload"
)

// workload is one closed-loop script: it builds a fresh system (set-up),
// runs the measured phase through the probe, and ends with the
// recovery epilogue. All four run LFS on the WREN IV disk model with
// core.DefaultConfig() unless the script says otherwise.
type workload struct {
	name string
	why  string
	run  func(r *rep) error
	// baseline, when non-nil, runs the same script on the FFS baseline
	// (traced run only): the paper's denominator.
	baseline func(r *rep) error
	// latencyOps are the obs span names that make up the latency op,
	// for the phase-share breakdown.
	latencyOps []string
	// oracle checks the repetition's simulated results against what
	// this workload must reproduce at full scale.
	oracle func(o *repResult) []string
}

var workloads = []workload{
	{
		name: "smallfile",
		why:  "Fig 3 at paper scale: 10000 1 KB files created, read, deleted in one directory; namespace and metadata do the work",
		run: func(r *rep) error {
			return smallfile(r, func() error { return r.mountLFS(1, paperDisk, core.DefaultConfig()) })
		},
		baseline:   func(r *rep) error { return smallfile(r, func() error { return r.mountFFS(paperDisk) }) },
		latencyOps: []string{"create", "write"},
		oracle: func(o *repResult) []string {
			return phaseOracle(o, "%.1f", wl.Phase.OpsPerSec, map[string]string{"create": "141.1", "read": "178.8", "delete": "638.3"})
		},
	},
	{
		name: "largefile",
		why:  "Fig 4: one 100 MB file in 8 KB calls against a 15 MB cache; the data path, reads beside writes, no namespace work",
		run: func(r *rep) error {
			return largefile(r, func() error { return r.mountLFS(1, paperDisk, core.DefaultConfig()) })
		},
		baseline:   func(r *rep) error { return largefile(r, func() error { return r.mountFFS(paperDisk) }) },
		latencyOps: []string{"read", "write"},
		oracle: func(o *repResult) []string {
			return phaseOracle(o, "%.0f", wl.Phase.KBPerSec, map[string]string{"seq write": "1218", "seq read": "865"})
		},
	},
	{
		name:       "cleaning",
		why:        "Fig 5: Zipf overwrites at a fixed 0.80 fill, so the cleaner runs many passes and write cost has levelled",
		run:        cleaning,
		latencyOps: []string{"write", "sync"},
	},
	{
		name:       "clients",
		why:        "16 fsync-bound clients on 4 shards: the only workload that runs sched, server, shard, the disk queue and group commit",
		run:        clients,
		latencyOps: []string{"create", "write", "fsync"},
		oracle: func(o *repResult) []string {
			// Sized so the log never wraps; a cleaned segment here means
			// the cleaner has leaked into the row that must exclude it.
			if n := o.sumDelta(func(s core.StatsSnapshot) int64 { return s.Log.SegmentsCleaned }); n != 0 {
				return []string{fmt.Sprintf("clients: core.segments_cleaned = %d, want 0", n)}
			}
			return nil
		},
	},
}

// paperDisk is the evaluation volume: "around 300 megabytes of usable
// storage".
const paperDisk = 300 << 20

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// phaseOracle compares the named phases' rates, formatted as the
// committed bench_results.txt prints them, with the figures recorded
// there. They do not depend on the seed.
func phaseOracle(o *repResult, format string, rate func(wl.Phase) float64, want map[string]string) []string {
	var miss []string
	for _, p := range o.phases {
		if w, ok := want[p.Name]; ok {
			if got := fmt.Sprintf(format, rate(p)); got != w {
				miss = append(miss, fmt.Sprintf("phase %s: %s, bench_results.txt has %s", p.Name, got, w))
			}
		}
	}
	return miss
}

// smallfile is the small-file test of §5.1, run by workload.SmallFile
// itself — the script the experiments use — through the probe: create
// and write every file, Sync, flush the cache, read them all in
// creation order, delete them all, Sync. The seed feeds the payload
// pattern. The latency op is one file's Create+Write.
func smallfile(r *rep, mount func() error) error {
	opts := wl.DefaultSmallFile1K()
	opts.NumFiles, opts.Seed = r.sc.smallFiles, r.seed
	if err := mount(); err != nil {
		return err
	}
	fs := r.fs
	if !r.beginMeasured(4*opts.NumFiles + 4) {
		return nil
	}
	res, err := wl.SmallFile(fs, opts)
	if err != nil {
		return err
	}
	r.out.phases = []wl.Phase{res.Create, res.Read, res.Delete}
	r.endMeasured(func() []int64 { return fs.pairLatencies(kCreate, kWrite) })

	// The recovery tail creates further files beside the script's.
	return r.epilogue(func(i int) error {
		name := fmt.Sprintf("%s/f%06d", opts.Dir, opts.NumFiles+i)
		if err := fs.Create(name); err != nil {
			return err
		}
		return fs.Write(name, 0, r.data(opts.FileSize))
	})
}

// largefile is the large-file test of §5.2, run by workload.LargeFile
// itself through the probe: sequential write, sequential read, random
// write, random read, sequential reread, the cache flushed between
// phases. The seed feeds the random offsets. The latency op is each
// 8 KB call.
func largefile(r *rep, mount func() error) error {
	opts := wl.DefaultLargeFile()
	opts.FileSize, opts.Seed = r.sc.largeFileBytes, r.seed
	n := int(opts.FileSize / int64(opts.RequestSize))
	if err := mount(); err != nil {
		return err
	}
	fs := r.fs
	if !r.beginMeasured(5*n + 4) {
		return nil
	}
	res, err := wl.LargeFile(fs, opts)
	if err != nil {
		return err
	}
	r.out.phases = res.Phases()
	r.endMeasured(func() []int64 { return fs.latencies(kRead, kWrite) })

	// The recovery tail goes on writing at random offsets.
	rng := rand.New(rand.NewSource(r.seed))
	return r.epilogue(func(i int) error {
		off := int64(rng.Intn(n)) * int64(opts.RequestSize)
		return fs.Write(opts.Path, off, r.data(opts.RequestSize))
	})
}

// cleaning holds the fill factor fixed and reads cleaning cost off it
// (Lomet & Luo): the cleaning-curve experiment's volume and cleaner
// settings, populated to 0.80 of the log with 4 KB files (set-up),
// then cleanRounds whole-file overwrites per file with Zipf-chosen
// victims, a Sync every 64. Files are spread over 128 directories so
// directory scans do not drown the cleaner in the host profile. The
// latency op is each call of the loop, Write or Sync: the cleaner runs
// at flush entry, so its stalls land in the Syncs.
func cleaning(r *rep) error {
	const (
		size      = 4096
		dirs      = 128
		syncEvery = 64
	)
	cfg := core.DefaultConfig()
	cfg.Policy = core.CleanCostBenefit
	cfg.CacheBlocks = 256
	cfg.MaxLiveFraction = 0.92
	cfg.SegmentSize = 256 << 10
	cfg.CleanThresholdSegments = 8
	cfg.CleanTargetSegments = 12
	if err := r.mountLFS(1, r.sc.cleanDisk, cfg); err != nil {
		return err
	}
	fs := r.fs
	var names []string
	var victim []int
	var n int
	r.untimed(func() {
		files := int(r.sc.cleanFill * float64(r.insts[0].LogCapacity()) / size)
		names = make([]string, files)
		for i := range names {
			names[i] = fmt.Sprintf("/d%03d/f%06d", i%dirs, i)
		}
		n = r.sc.cleanRounds * files
		zipf := rand.NewZipf(rand.New(rand.NewSource(r.seed)), 1.1, 8, uint64(files-1))
		victim = make([]int, n+2*tailOps)
		for i := range victim {
			victim[i] = int(zipf.Uint64())
		}
	})

	for d := 0; d < dirs; d++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%03d", d)); err != nil {
			return err
		}
	}
	for _, name := range names {
		if err := fs.Create(name); err != nil {
			return err
		}
		if err := fs.Write(name, 0, r.data(size)); err != nil {
			return err
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}

	if !r.beginMeasured(n + n/syncEvery + 4) {
		return nil
	}
	for i := 0; i < n; i++ {
		if err := fs.Write(names[victim[i]], 0, r.data(size)); err != nil {
			return err
		}
		if (i+1)%syncEvery == 0 || i == n-1 {
			if err := fs.Sync(); err != nil {
				return err
			}
		}
	}
	r.endMeasured(func() []int64 { return fs.latencies(kWrite, kSync) })

	// A cleaner activation ends with a checkpoint, so a recovery tail
	// that happens to trigger one has almost nothing to roll forward
	// and one that does not has everything: recovery time would be a
	// coin toss on the seed. Let the cleaner get ahead first, as the
	// paper's cleaning "at night" does, so the tail's two flushes stay
	// above the activation threshold.
	if _, err := r.insts[0].CleanUntil(cfg.CleanTargetSegments + 4); err != nil {
		return err
	}
	return r.epilogue(func(i int) error { return fs.Write(names[victim[n+i]], 0, r.data(size)) })
}

// clients drives server.Run: 16 closed-loop clients, each a 4 KB write
// then FsyncFile over 8 files, no think time, through a 4-shard router
// with group commit on the sharding experiment's machine (a CPU twenty
// times the Sun-4). The latency op is write-issue to fsync-return as
// each client sees it.
func clients(r *rep) error {
	const (
		nClients = 16
		nFiles   = 8
		size     = 4096
	)
	cfg := core.DefaultConfig()
	cfg.GroupCommit = true
	cfg.MIPS = 20 * sim.Sun4MIPS
	if err := r.mountLFS(4, 256<<20, cfg); err != nil {
		return err
	}
	fs := r.fs
	scfg := server.Config{
		Clients:        nClients,
		OpsPerClient:   r.sc.clientOps,
		WriteSize:      size,
		FilesPerClient: nFiles,
		Seed:           r.seed,
	}
	tail := make([]string, 2*tailOps)
	for i := range tail {
		tail[i] = fmt.Sprintf("/client%02d/f%03d", i%nClients+1, i/nClients%nFiles)
	}

	if !r.beginMeasured(nClients * (2*r.sc.clientOps + nFiles + 1)) {
		return nil
	}
	sp := r.tr.begin(layerServer, "run")
	res, err := server.Run(fs, scfg)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("server.Run: %w", err)
	}
	r.endMeasured(func() []int64 { return fs.opLat })
	r.out.server = res

	// The probe's client-side latencies must be the ones server.Run
	// measured itself: same count, same sum.
	var sum, want int64
	for _, d := range fs.opLat {
		sum += d
	}
	for _, c := range res.PerClient {
		want += int64(c.TotalLatency)
	}
	if int64(len(fs.opLat)) != res.Ops || sum != want || res.Errors != 0 {
		return fmt.Errorf("probe saw %d client ops totalling %d ns, server.Run reports %d ops, %d ns, %d errors",
			len(fs.opLat), sum, res.Ops, want, res.Errors)
	}

	return r.epilogue(func(i int) error { return fs.Write(tail[i], 0, r.data(size)) })
}

// sumDelta sums, over the LFS instances, how much a counter grew
// during the measured phase.
func (o *repResult) sumDelta(f func(core.StatsSnapshot) int64) int64 {
	var d int64
	for i := range o.after {
		d += f(o.after[i]) - f(o.before[i])
	}
	return d
}
