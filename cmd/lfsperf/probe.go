package main

import (
	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// innerFS is what the benchmark needs from a file system under test:
// the VFS operations plus the hooks all three implementations (LFS,
// the shard router, FFS) provide.
type innerFS interface {
	vfs.FileSystem
	Clock() *sim.Clock
	DropCaches()
	SetClient(id int)
	NoteWait(kind obs.PhaseKind, d sim.Duration)
	Crash()
}

// callKind names a VFS entry point.
type callKind uint8

const (
	kCreate callKind = iota
	kMkdir
	kWrite
	kRead
	kStat
	kReadDir
	kRemove
	kRename
	kLink
	kTruncate
	kSync
	kFsync
	kUnmount
	numKinds
)

var kindNames = [numKinds]string{
	"create", "mkdir", "write", "read", "stat", "readdir", "remove",
	"rename", "link", "truncate", "sync", "fsync", "unmount",
}

// probeFS is the benchmark's measuring point at the VFS boundary. It
// forwards every call unchanged and records, per call, the simulated
// latency (always) and a host-time span (traced repetition only); it
// keeps the shadow record the epilogue verifies against and checks
// every read against it. That bookkeeping runs after the call's span is
// closed, under a "shadow" span of the benchmark's own layer, so that
// its host time is charged to the benchmark and not to whoever made the
// call (server.Run on clients).
//
// It implements the optional hooks server.Run and the workloads probe
// for by interface assertion — FsyncFile, SetClient, NoteWait,
// TickMetrics, Clock, DropCaches — because dropping one silently
// changes the run: without FsyncFile every fsync becomes a whole-FS
// Sync. For an inner file system that lacks a hook the wrapper does
// what the caller would have done without it.
type probeFS struct {
	in    innerFS
	fsync func(path string) error // in's FsyncFile, nil when it has none
	tick  func()                  // in's TickMetrics, nil when it has none
	clock *sim.Clock
	tr    *tracer
	sh    *shadow

	// The call log since the last reset: kind and simulated latency
	// of every call, in order.
	kinds  []callKind
	simLat []int64
	count  [numKinds]int64
	simNS  [numKinds]int64

	userBytes  int64 // payload bytes written plus bytes read back
	errs       int64 // calls that returned an error
	mismatches int64 // reads that returned other bytes than written

	// Client-perceived latency, for multi-client runs: server.Run
	// labels calls with SetClient, a client's operation starts at its
	// first Create/Write and ends when its fsync returns.
	client  int
	opStart []sim.Time // per client, -1 when no operation is open
	opLat   []int64
}

func newProbe(in innerFS, tr *tracer, sh *shadow) *probeFS {
	p := &probeFS{in: in, clock: in.Clock(), tr: tr, sh: sh}
	if f, ok := in.(interface{ FsyncFile(string) error }); ok {
		p.fsync = f.FsyncFile
	}
	if t, ok := in.(interface{ TickMetrics() }); ok {
		p.tick = t.TickMetrics
	}
	return p
}

// resetLog discards everything recorded so far (the set-up's calls)
// and sizes the log for n more.
func (p *probeFS) resetLog(n int) {
	p.kinds = make([]callKind, 0, n)
	p.simLat = make([]int64, 0, n)
	p.opLat = make([]int64, 0, n)
	p.count, p.simNS = [numKinds]int64{}, [numKinds]int64{}
	p.userBytes, p.errs, p.mismatches = 0, 0, 0
}

func (p *probeFS) begin(k callKind) (sim.Time, int32) {
	return p.clock.Now(), p.tr.begin(layerVFS, kindNames[k])
}

func (p *probeFS) end(k callKind, t0 sim.Time, sp int32, err error) {
	p.tr.end(sp)
	d := int64(p.clock.Now().Sub(t0))
	p.kinds = append(p.kinds, k)
	p.simLat = append(p.simLat, d)
	p.count[k]++
	p.simNS[k] += d
	if err != nil {
		p.errs++
	}
}

// noteIssue opens the current client's operation if none is open.
func (p *probeFS) noteIssue() {
	if c := p.client; c > 0 && p.opStart[c] < 0 {
		p.opStart[c] = p.clock.Now()
	}
}

func (p *probeFS) Create(path string) error {
	p.noteIssue()
	t0, sp := p.begin(kCreate)
	err := p.in.Create(path)
	p.end(kCreate, t0, sp, err)
	if err == nil {
		sp = p.tr.begin(layerBench, "shadow")
		p.sh.create(path)
		p.tr.end(sp)
	}
	return err
}

func (p *probeFS) Mkdir(path string) error {
	t0, sp := p.begin(kMkdir)
	err := p.in.Mkdir(path)
	p.end(kMkdir, t0, sp, err)
	return err
}

func (p *probeFS) Write(path string, off int64, data []byte) error {
	p.noteIssue()
	t0, sp := p.begin(kWrite)
	err := p.in.Write(path, off, data)
	p.end(kWrite, t0, sp, err)
	if err == nil {
		p.userBytes += int64(len(data))
		sp = p.tr.begin(layerBench, "shadow")
		p.sh.write(path, off, data)
		p.tr.end(sp)
	}
	return err
}

func (p *probeFS) Read(path string, off int64, buf []byte) (int, error) {
	t0, sp := p.begin(kRead)
	n, err := p.in.Read(path, off, buf)
	p.end(kRead, t0, sp, err)
	if err == nil {
		p.userBytes += int64(n)
		sp = p.tr.begin(layerBench, "shadow")
		if !p.sh.checkRead(path, off, buf[:n]) {
			p.mismatches++
		}
		p.tr.end(sp)
	}
	return n, err
}

func (p *probeFS) Stat(path string) (vfs.FileInfo, error) {
	t0, sp := p.begin(kStat)
	fi, err := p.in.Stat(path)
	p.end(kStat, t0, sp, err)
	return fi, err
}

func (p *probeFS) ReadDir(path string) ([]layout.DirEntry, error) {
	t0, sp := p.begin(kReadDir)
	es, err := p.in.ReadDir(path)
	p.end(kReadDir, t0, sp, err)
	return es, err
}

func (p *probeFS) Remove(path string) error {
	t0, sp := p.begin(kRemove)
	err := p.in.Remove(path)
	p.end(kRemove, t0, sp, err)
	if err == nil {
		sp = p.tr.begin(layerBench, "shadow")
		p.sh.remove(path)
		p.tr.end(sp)
	}
	return err
}

func (p *probeFS) Rename(oldPath, newPath string) error {
	t0, sp := p.begin(kRename)
	err := p.in.Rename(oldPath, newPath)
	p.end(kRename, t0, sp, err)
	p.sh.forget(oldPath, newPath)
	return err
}

func (p *probeFS) Link(oldPath, newPath string) error {
	t0, sp := p.begin(kLink)
	err := p.in.Link(oldPath, newPath)
	p.end(kLink, t0, sp, err)
	p.sh.forget(oldPath, newPath)
	return err
}

func (p *probeFS) Truncate(path string, size int64) error {
	t0, sp := p.begin(kTruncate)
	err := p.in.Truncate(path, size)
	p.end(kTruncate, t0, sp, err)
	p.sh.forget(path)
	return err
}

func (p *probeFS) Sync() error {
	t0, sp := p.begin(kSync)
	err := p.in.Sync()
	p.end(kSync, t0, sp, err)
	if err == nil {
		sp = p.tr.begin(layerBench, "shadow")
		p.sh.ackAll()
		p.tr.end(sp)
	}
	return err
}

// FsyncFile forwards the single-file sync; on a file system without
// one it falls back to Sync, exactly as server.Run would.
func (p *probeFS) FsyncFile(path string) error {
	t0, sp := p.begin(kFsync)
	var err error
	if p.fsync != nil {
		err = p.fsync(path)
	} else {
		err = p.in.Sync()
	}
	p.end(kFsync, t0, sp, err)
	if err != nil {
		return err
	}
	sp = p.tr.begin(layerBench, "shadow")
	if p.fsync != nil {
		p.sh.ackFile(path)
	} else {
		p.sh.ackAll()
	}
	p.tr.end(sp)
	if c := p.client; c > 0 && p.opStart[c] >= 0 {
		p.opLat = append(p.opLat, int64(p.clock.Now().Sub(p.opStart[c])))
		p.opStart[c] = -1
	}
	return nil
}

func (p *probeFS) Unmount() error {
	t0, sp := p.begin(kUnmount)
	err := p.in.Unmount()
	p.end(kUnmount, t0, sp, err)
	return err
}

func (p *probeFS) Clock() *sim.Clock { return p.clock }
func (p *probeFS) Crash()            { p.in.Crash() }

// DropCaches is not a VFS call and is not logged as one, but it costs
// host time inside the file system, so it gets a span.
func (p *probeFS) DropCaches() {
	sp := p.tr.begin(layerVFS, "drop_caches")
	p.in.DropCaches()
	p.tr.end(sp)
}

func (p *probeFS) SetClient(id int) {
	for len(p.opStart) <= id {
		p.opStart = append(p.opStart, -1)
	}
	p.client = id
	p.in.SetClient(id)
}

func (p *probeFS) NoteWait(kind obs.PhaseKind, d sim.Duration) { p.in.NoteWait(kind, d) }

func (p *probeFS) TickMetrics() {
	if p.tick != nil {
		p.tick()
	}
}

// latencies returns the simulated latency of every logged call of the
// given kinds, in call order.
func (p *probeFS) latencies(kinds ...callKind) []int64 {
	var want [numKinds]bool
	for _, k := range kinds {
		want[k] = true
	}
	out := make([]int64, 0, len(p.simLat))
	for i, k := range p.kinds {
		if want[k] {
			out = append(out, p.simLat[i])
		}
	}
	return out
}

// pairLatencies returns, for every logged call of kind a directly
// followed by one of kind b, the simulated latency of the two
// together. The clock only moves inside calls, so the sum is the time
// from the first call's entry to the second's return.
func (p *probeFS) pairLatencies(a, b callKind) []int64 {
	out := make([]int64, 0, len(p.simLat)/2)
	for i := 0; i+1 < len(p.kinds); i++ {
		if p.kinds[i] == a && p.kinds[i+1] == b {
			out = append(out, p.simLat[i]+p.simLat[i+1])
		}
	}
	return out
}
