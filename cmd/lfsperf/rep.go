package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/ffs"
	"lfs/internal/obs"
	"lfs/internal/server"
	"lfs/internal/shard"
	"lfs/internal/sim"
	wl "lfs/internal/workload"
)

// tailOps is how many operations the recovery tail acknowledges after
// the last checkpoint, and how many more it leaves unsynced before the
// power cut.
const tailOps = 64

// scale sizes the four workloads. fullScale is the benchmark; the
// package's tests run the same scripts at a fraction of it.
type scale struct {
	smallFiles     int     // smallfile: files created, read and deleted
	largeFileBytes int64   // largefile: file size
	cleanDisk      int64   // cleaning: disk capacity
	cleanFill      float64 // cleaning: share of the log the files fill
	cleanRounds    int     // cleaning: whole-file overwrites per file
	clientOps      int     // clients: write+fsync operations per client
	kernelDiv      int     // kernels: divisor of every iteration count
}

var fullScale = scale{smallFiles: 10000, largeFileBytes: 100 << 20, cleanDisk: 48 << 20, cleanFill: 0.80, cleanRounds: 5, clientOps: 2000, kernelDiv: 1}

// repResult is what one repetition measured.
type repResult struct {
	// Host cost. setupHost covers disk + Format + Mount + population,
	// runHost the measured phase; the MemStats and CPU deltas are
	// over the measured phase too.
	setupHost, runHost   time.Duration
	cpu                  time.Duration
	mallocs, allocBytes  uint64
	gcCycles             uint32
	mountHost, checkHost time.Duration

	// Simulated results: a function of the seed alone, so identical in
	// every repetition of a run (the digest is compared).
	calls         int64
	userBytes     int64
	simElapsed    sim.Duration
	latSamples    int          // latency-op samples
	latP50        sim.Duration // their nearest-rank median
	latP99        sim.Duration // and 99th percentile
	phases        []wl.Phase
	before, after []core.StatsSnapshot // per LFS instance
	syncWrites    int64                // blocking disk writes, all disks
	kindCount     [numKinds]int64
	kindSimNS     [numKinds]int64
	simRecovery   sim.Duration
	rollforward   int64
	maxQueueDepth int
	server        server.Result // clients only
	digest        string

	// Correctness: attempted counts calls plus checks, failed counts
	// calls that returned an error, read-back mismatches and violated
	// epilogue expectations.
	attempted, failed int64
	problems          []string

	// Traced repetition only.
	aggs     []*obs.Aggregates // per LFS instance, measured phase
	obsSpans []obs.Span        // all instances, measured phase
	cleanUS  float64           // host µs per segment of post-run CleanOnce calls
}

// rep is one repetition in progress: a fresh system, the measured
// script, then the recovery epilogue.
type rep struct {
	seed int64
	sc   scale
	tr   *tracer // nil in untraced repetitions
	// setupOnly stops the script where the measured phase would begin:
	// a run takes more set-up samples than it makes full repetitions.
	setupOnly bool
	// intercept, when non-nil, wraps the mounted file system beneath
	// the probe. Tests use it to log the operation stream and to
	// inject a fault (a sync that is acknowledged but never done).
	intercept func(innerFS) innerFS
	recs      []*obs.Recorder // one per LFS instance, traced only

	clock   *sim.Clock
	disks   []*disk.Disk
	stores  []*timedStore // traced only
	insts   []*core.FS    // the LFS instances behind fs, in shard order
	fs      *probeFS
	remount func() (innerFS, []*core.FS, error) // nil: no recovery epilogue (FFS)

	base   []byte // seeded payload bytes, stamped per write
	serial uint64

	setupStart, hostStart   time.Time
	setupSpan, measuredSpan int32
	m0                      runtime.MemStats
	cpu0                    time.Duration
	simStart                sim.Time
	syncWrites0             int64

	out repResult
}

func newRep(seed int64, sc scale, traced bool) *rep {
	r := &rep{seed: seed, sc: sc, clock: sim.NewClock(), base: make([]byte, 8192)}
	rand.New(rand.NewSource(seed)).Read(r.base)
	if traced {
		r.tr = newTracer()
	}
	return r
}

// note records a failed expectation for the report. The count of
// failed calls is kept by the probe; this keeps the first few messages.
func (r *rep) note(what string) {
	if len(r.out.problems) < 8 {
		r.out.problems = append(r.out.problems, what)
	}
}

// data returns the payload of the next write the benchmark issues
// itself (cleaning, and every recovery tail): n seeded bytes with a
// running serial stamped into every sector, so no two such writes carry
// the same bytes and a misplaced sector cannot verify.
func (r *rep) data(n int) []byte {
	r.serial++
	b := r.base[:n]
	for off := 0; off < n; off += disk.SectorSize {
		binary.LittleEndian.PutUint64(b[off:], r.serial)
	}
	return b
}

// newDisk builds one WREN IV disk on the repetition's clock, over a
// memory store — wrapped in the timing store when traced.
func (r *rep) newDisk(capacity int64) (*disk.Disk, error) {
	geom := disk.GeometryForCapacity(capacity)
	var st disk.Store = disk.NewMemStore(geom.TotalBytes())
	if r.tr != nil {
		ts := &timedStore{Store: st, tr: r.tr}
		r.stores = append(r.stores, ts)
		st = ts
	}
	d, err := disk.New(st, geom, disk.WrenIVModel(), r.clock)
	if err != nil {
		return nil, err
	}
	r.disks = append(r.disks, d)
	return d, nil
}

func (r *rep) beginSetup() {
	// Start every repetition as a fresh process would: garbage
	// collected and its pages returned to the system, so that one
	// repetition's 300 MB store is not the next one's peak RSS, GC debt
	// or pre-faulted memory.
	debug.FreeOSMemory()
	r.setupStart = time.Now()
	r.setupSpan = r.tr.begin(layerBench, "setup")
}

// mountLFS formats and mounts LFS over fresh disks: one core.FS, or a
// shard router over several when shards > 1. It starts the set-up
// timer, which runs until beginMeasured.
func (r *rep) mountLFS(shards int, capacity int64, cfg core.Config) error {
	r.beginSetup()
	for i := 0; i < shards; i++ {
		if _, err := r.newDisk(capacity / int64(shards)); err != nil {
			return err
		}
		if r.tr != nil {
			r.recs = append(r.recs, obs.NewRecorder())
		}
	}
	if shards == 1 {
		if r.tr != nil {
			cfg.Trace = r.recs[0]
		}
		d := r.disks[0]
		if err := core.Format(d, cfg); err != nil {
			return err
		}
		mount := func() (innerFS, []*core.FS, error) {
			fs, err := core.Mount(d, cfg)
			if err != nil {
				return nil, nil, err
			}
			return fs, []*core.FS{fs}, nil
		}
		return r.attach(mount)
	}
	opts := shard.Options{Base: cfg}
	if r.tr != nil {
		opts.ShardConfig = func(i int, c core.Config) core.Config {
			c.Trace = r.recs[i]
			return c
		}
	}
	if err := shard.Format(r.disks, opts); err != nil {
		return err
	}
	mount := func() (innerFS, []*core.FS, error) {
		fs, err := shard.Mount(r.disks, opts)
		if err != nil {
			return nil, nil, err
		}
		insts := make([]*core.FS, fs.NumShards())
		for i := range insts {
			insts[i] = fs.ShardFS(i)
		}
		return fs, insts, nil
	}
	return r.attach(mount)
}

// attach mounts through mount, wraps the result in the probe, and
// keeps mount for the epilogue's recovery.
func (r *rep) attach(mount func() (innerFS, []*core.FS, error)) error {
	in, insts, err := mount()
	if err != nil {
		return err
	}
	r.insts, r.remount = insts, mount
	r.probe(in)
	return nil
}

// mountFFS formats and mounts the FFS baseline on one fresh disk. The
// baseline arm has no recovery epilogue.
func (r *rep) mountFFS(capacity int64) error {
	r.beginSetup()
	d, err := r.newDisk(capacity)
	if err != nil {
		return err
	}
	cfg := ffs.DefaultConfig()
	if err := ffs.Format(d, cfg); err != nil {
		return err
	}
	fs, err := ffs.Mount(d, cfg)
	if err != nil {
		return err
	}
	r.probe(fs)
	return nil
}

func (r *rep) probe(in innerFS) {
	if r.intercept != nil {
		in = r.intercept(in)
	}
	r.fs = newProbe(in, r.tr, newShadow())
}

func (r *rep) snapshots() []core.StatsSnapshot {
	out := make([]core.StatsSnapshot, len(r.insts))
	for i, fs := range r.insts {
		out[i] = fs.StatsSnapshot()
		out[i].Trace = nil
	}
	return out
}

func (r *rep) diskSyncWrites() int64 {
	var n int64
	for _, d := range r.disks {
		n += d.Stats().SyncWrites
	}
	return n
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// untimed runs f, which generates inputs that could only be sized once
// the volume was mounted, and keeps its time out of set-up.
func (r *rep) untimed(f func()) {
	t0 := time.Now()
	f()
	r.setupStart = r.setupStart.Add(time.Since(t0))
}

// beginMeasured ends set-up and starts the measured phase; calls sizes
// the probe's log so the loop does not grow it. It returns false when
// the repetition was only there to time the set-up.
func (r *rep) beginMeasured(calls int) bool {
	r.tr.end(r.setupSpan)
	r.out.setupHost = time.Since(r.setupStart)
	if r.setupOnly {
		return false
	}
	r.fs.resetLog(calls + 4*tailOps + 1)
	for _, rec := range r.recs {
		rec.Reset()
	}
	for _, s := range r.stores {
		s.readCalls, s.writeCalls, s.bytesRead, s.bytesWritten = 0, 0, 0, 0
	}
	r.out.before = r.snapshots()
	r.syncWrites0 = r.diskSyncWrites()
	r.simStart = r.clock.Now()
	runtime.ReadMemStats(&r.m0)
	r.cpu0 = cpuTime()
	r.measuredSpan = r.tr.begin(layerBench, "measured")
	r.hostStart = time.Now()
	return true
}

// endMeasured stops the measured phase. latency extracts the
// workload's latency-op samples from the probe's log; it runs after
// the host timer stopped.
func (r *rep) endMeasured(latency func() []int64) {
	o := &r.out
	o.runHost = time.Since(r.hostStart)
	r.tr.end(r.measuredSpan)
	o.cpu = cpuTime() - r.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	o.mallocs = m1.Mallocs - r.m0.Mallocs
	o.allocBytes = m1.TotalAlloc - r.m0.TotalAlloc
	o.gcCycles = m1.NumGC - r.m0.NumGC

	o.simElapsed = r.clock.Now().Sub(r.simStart)
	o.after = r.snapshots()
	o.syncWrites = r.diskSyncWrites() - r.syncWrites0
	for _, d := range r.disks {
		o.maxQueueDepth = max(o.maxQueueDepth, d.MaxQueueDepth())
	}
	p := r.fs
	o.calls = int64(len(p.simLat))
	o.userBytes = p.userBytes
	o.kindCount, o.kindSimNS = p.count, p.simNS
	lat := slices.Clone(latency())
	slices.Sort(lat)
	o.latSamples = len(lat)
	o.latP50, o.latP99 = sim.Duration(percentile(lat, 0.50)), sim.Duration(percentile(lat, 0.99))
	for _, rec := range r.recs {
		o.aggs = append(o.aggs, rec.Aggregates())
		o.obsSpans = append(o.obsSpans, rec.Spans()...)
	}
}

// epilogue is the recovery check every repetition ends with. Every
// instance takes a checkpoint, so that what recovery has to do does not
// depend on where the last periodic one happened to fall; then come
// tailOps operations acknowledged by a Sync — only roll-forward can
// bring those back — and tailOps more that are never synced; then the
// power is cut and the volume mounted again. The recovered volume is
// held to the shadow record and to the file system's own consistency
// check.
func (r *rep) epilogue(tail func(i int) error) error {
	o := &r.out
	if r.remount == nil {
		r.finish(0, nil)
		return nil
	}
	sp := r.tr.begin(layerBench, "epilogue")
	defer r.tr.end(sp)
	for _, fs := range r.insts {
		if err := fs.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint before the recovery tail: %w", err)
		}
	}
	for i := 0; i < 2*tailOps; i++ {
		if err := tail(i); err != nil {
			r.note(err.Error())
		}
		if i == tailOps-1 {
			if err := r.fs.Sync(); err != nil {
				r.note(err.Error())
			}
		}
	}
	r.fs.Crash()
	t0, h0 := r.clock.Now(), time.Now()
	in, insts, err := r.remount()
	if err != nil {
		return fmt.Errorf("remount after the power cut: %w", err)
	}
	o.simRecovery, o.mountHost = r.clock.Now().Sub(t0), time.Since(h0)
	for _, fs := range insts {
		o.rollforward += fs.Stats().RollForwardUnits
	}
	checks, bad := r.fs.sh.verify(in)
	h0 = time.Now()
	for i, fs := range insts {
		checks++
		rep, err := fs.Check()
		if err != nil {
			return fmt.Errorf("check after recovery: %w", err)
		}
		for _, p := range rep.Problems {
			bad = append(bad, fmt.Sprintf("check (instance %d): %s", i, p))
		}
	}
	o.checkHost = time.Since(h0)
	r.finish(checks, bad)
	if r.tr != nil {
		o.cleanUS = timeCleanOnce(insts)
	}
	return nil
}

// finish tallies attempted and failed and computes the digest.
func (r *rep) finish(checks int64, violations []string) {
	o := &r.out
	for _, v := range violations {
		r.note(v)
	}
	o.attempted = int64(len(r.fs.simLat)) + checks
	o.failed = r.fs.errs + r.fs.mismatches + int64(len(violations))
	if r.fs.mismatches > 0 {
		r.note(fmt.Sprintf("%d reads returned other bytes than were written", r.fs.mismatches))
	}

	// sim_digest: everything simulated that a host-only change must
	// leave alone — the final clock, every instance's counters, and
	// the simulated latency of every measured call in order.
	h := sha256.New()
	fmt.Fprintf(h, "end=%d elapsed=%d recovery=%d rollforward=%d\n", r.clock.Now(), o.simElapsed, o.simRecovery, o.rollforward)
	for _, s := range o.after {
		fmt.Fprintf(h, "%+v\n", s)
	}
	// Writing to a hash never fails.
	_ = binary.Write(h, binary.LittleEndian, r.fs.simLat[:o.calls])
	o.digest = hex.EncodeToString(h.Sum(nil))
}

// timeCleanOnce is the cleaner kernel: after everything else is
// measured it asks each recovered instance for a few cleaning passes
// and reports host microseconds per segment cleaned (0 when nothing
// needed cleaning).
func timeCleanOnce(insts []*core.FS) float64 {
	var segs int64
	var host time.Duration
	for _, fs := range insts {
		for i := 0; i < 8; i++ {
			t0 := time.Now()
			res, err := fs.CleanOnce()
			if err != nil {
				break
			}
			host += time.Since(t0)
			segs += int64(res.SegmentsCleaned)
		}
	}
	if segs == 0 {
		return 0
	}
	return float64(host.Microseconds()) / float64(segs)
}
