// Package server drives a file system with N closed-loop simulated
// clients — the paper's office-and-engineering environment of "many
// users sharing one server", where sync requests from different users
// overlap and the log can satisfy several of them with one segment
// write (§4.1).
//
// Each client issues small-file write/fsync operations in a loop:
// think, write, then fsync as a *separate* scheduled event. Splitting
// the op in two is the point of the exercise — between one client's
// write and its fsync the event loop runs other clients' writes, so by
// the time the first fsync fires the cache holds several clients'
// dirty data. With Config.GroupCommit enabled on LFS, that first fsync
// flushes everything in one segment transfer and the other clients'
// fsyncs piggyback; FFS gains nothing because its per-file costs are
// dominated by scattered synchronous metadata writes.
//
// Everything runs on one goroutine over one simulated clock
// (internal/sched), so a run is a pure function of the seed: same
// seed, same interleaving, byte-identical traces.
package server

import (
	"errors"
	"fmt"
	"math/rand"

	"lfs/internal/obs"
	"lfs/internal/sched"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// FS is the surface the server drives: the common VFS operations plus
// the hooks both file systems provide for attribution and timing.
type FS interface {
	vfs.FileSystem
	// SetClient labels subsequent operations with the issuing
	// client's ID for span and I/O attribution.
	SetClient(id int)
	// Clock is the simulated clock the file system runs on; the
	// event loop shares it.
	Clock() *sim.Clock
}

// fileSyncer is the optional single-file sync (LFS has it). Targets
// without it fall back to Sync, which is what fsync cost on the FFS
// of the day: forcing the file's blocks plus whatever else is dirty.
type fileSyncer interface {
	FsyncFile(path string) error
}

// metricsTicker is the optional metrics-plane pump (LFS and the shard
// router have it). When MetricsInterval is positive — a sampler is
// attached — the loop calls TickMetrics at that spacing, however the
// operations fall. The pump is cancelled the moment the last operation
// completes, so it never extends the run, and its events are excluded
// from Result.Events: a sampled run reports identical results.
type metricsTicker interface {
	TickMetrics()
	MetricsInterval() sim.Duration
}

// waitNoter is the optional pre-operation wait attribution hook (all
// three file systems have it). The server notes scheduler dispatch
// gaps — an event firing later than scheduled because other clients'
// operations consumed the intervening simulated time — so the next
// span's phase decomposition carries the serialization wait
// (obs.PhaseLockWait) instead of silently losing it.
type waitNoter interface {
	NoteWait(kind obs.PhaseKind, d sim.Duration)
}

// Config shapes a multi-client run: the clients and the load they
// offer. The metrics pump is not configured here; a target with a
// sampler is pumped at the sampler's own interval (metricsTicker).
type Config struct {
	// Clients is the number of closed-loop clients.
	Clients int
	// OpsPerClient is how many write+fsync operations each client
	// issues.
	OpsPerClient int
	// WriteSize is the bytes written per operation.
	WriteSize int
	// FilesPerClient is how many files each client cycles through.
	FilesPerClient int
	// Seed makes the run reproducible; it feeds the event loop and
	// every per-client RNG.
	Seed int64
	// OnOpError, when non-nil, is consulted on every operation error.
	// Returning true tolerates the failure: it is counted in the
	// client's Errors, the operation is abandoned, and the client
	// moves on to its next operation after a think pause. Returning
	// false — or leaving the hook nil — aborts the run with the
	// error, the default. Fault-injection experiments use it to keep
	// healthy shards committing while one shard is down.
	OnOpError func(client int, err error) bool
}

// DefaultConfig returns a small-file commit workload: 4 KB writes,
// each fsynced.
func DefaultConfig() Config {
	return Config{
		Clients:        4,
		OpsPerClient:   64,
		WriteSize:      4096,
		FilesPerClient: 8,
		Seed:           1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Clients < 1 {
		return fmt.Errorf("server: %d clients", c.Clients)
	}
	if c.OpsPerClient < 1 {
		return fmt.Errorf("server: %d ops per client", c.OpsPerClient)
	}
	if c.WriteSize < 1 {
		return fmt.Errorf("server: write size %d", c.WriteSize)
	}
	if c.FilesPerClient < 1 {
		return fmt.Errorf("server: %d files per client", c.FilesPerClient)
	}
	return nil
}

// ClientStats is one client's view of the run.
type ClientStats struct {
	// Client is the client ID (1-based; 0 means unattributed).
	Client int
	// Ops counts completed write+fsync operations.
	Ops int64
	// Errors counts operations abandoned after a tolerated error
	// (Config.OnOpError returned true); always zero without the hook.
	Errors int64
	// BytesWritten counts payload bytes.
	BytesWritten int64
	// TotalLatency sums write-to-fsync-completion latencies.
	TotalLatency sim.Duration
	// MaxLatency is the worst single operation.
	MaxLatency sim.Duration
	// Latency is the distribution of per-operation latencies in
	// seconds, for percentile reporting (Quantile).
	Latency obs.Histogram
}

// MeanLatency returns the client's average operation latency.
func (s ClientStats) MeanLatency() sim.Duration {
	if s.Ops == 0 {
		return 0
	}
	return s.TotalLatency / sim.Duration(s.Ops)
}

// Result summarises a multi-client run.
type Result struct {
	// Clients echoes the client count.
	Clients int
	// Ops and BytesWritten total over all clients.
	Ops          int64
	BytesWritten int64
	// Errors totals tolerated operation errors over all clients.
	Errors int64
	// Start and End bound the run in simulated time.
	Start sim.Time
	End   sim.Time
	// Events is the number of scheduler events processed.
	Events int64
	// PerClient holds each client's statistics, in client order.
	PerClient []ClientStats
}

// Elapsed returns the simulated duration of the run.
func (r Result) Elapsed() sim.Duration { return r.End.Sub(r.Start) }

// OpsPerSecond returns aggregate throughput in operations per
// simulated second.
func (r Result) OpsPerSecond() float64 {
	el := r.Elapsed().Seconds()
	if el <= 0 {
		return 0
	}
	return float64(r.Ops) / el
}

// Run drives cfg.Clients closed-loop clients against fsys until every
// client has issued its operations, then returns the aggregate result.
// The first operation error aborts the run and is returned, unless
// Config.OnOpError tolerates it. Runs are idempotent over an existing
// client tree — directories and files left by an earlier Run against
// the same target are reused — so multi-phase experiments can call
// Run repeatedly on one file system.
func Run(fsys FS, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	loop := sched.NewLoop(fsys.Clock(), cfg.Seed)
	res := Result{
		Clients:   cfg.Clients,
		Start:     fsys.Clock().Now(),
		PerClient: make([]ClientStats, cfg.Clients),
	}
	// The metrics pump keeps exactly one pending tick event; it is
	// cancelled when the run ends (last op or first error), so it
	// never advances the clock past the real end of the run, and its
	// firings are subtracted from Result.Events so the event count is
	// identical with metrics on or off.
	var pumpID sched.EventID
	var pumpFired int64
	stopPump := func() {
		if pumpID != 0 {
			loop.Cancel(pumpID)
			pumpID = 0
		}
	}

	// Dispatch-gap attribution: an event that fires later than its
	// scheduled instant waited for the file system, serialized behind
	// other clients. The gap is noted before the operation runs so
	// its span starts at the scheduled time and carries the wait as
	// an explicit lock_wait phase. Pure arithmetic on clock reads —
	// the timeline, event count, and results are unchanged.
	noter, _ := fsys.(waitNoter)
	noteDispatchGap := func(intended sim.Time) {
		if noter == nil {
			return
		}
		if gap := loop.Clock().Now().Sub(intended); gap > 0 {
			noter.NoteWait(obs.PhaseLockWait, gap)
		}
	}

	opsLeft := cfg.Clients * cfg.OpsPerClient
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		stopPump()
	}
	// tolerate routes an operation error through Config.OnOpError:
	// true means the client abandons the op and moves on.
	tolerate := func(st *ClientStats, err error) bool {
		if cfg.OnOpError != nil && cfg.OnOpError(st.Client, err) {
			st.Errors++
			return true
		}
		fail(err)
		return false
	}

	// Per-client working directories, created up front so the run
	// itself is pure write/fsync traffic. A directory left over from
	// an earlier run against the same target is fine.
	for c := 1; c <= cfg.Clients; c++ {
		fsys.SetClient(c)
		if err := fsys.Mkdir(clientDir(c)); err != nil && !errors.Is(err, vfs.ErrExist) {
			fsys.SetClient(0)
			return Result{}, err
		}
	}

	payload := make([]byte, cfg.WriteSize)
	for c := 1; c <= cfg.Clients; c++ {
		client := c
		st := &res.PerClient[client-1]
		st.Client = client
		// Each client draws its stagger from its own seeded stream, so
		// adding a client never perturbs the others' schedules.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(client)*0x9e3779b9))
		st.Latency = obs.NewLatencyHistogram()
		// The client's paths are built once, not formatted per event.
		paths := make([]string, cfg.FilesPerClient)
		dir := clientDir(client)
		for slot := range paths {
			paths[slot] = fmt.Sprintf("%s/f%03d", dir, slot)
		}
		created := make([]bool, cfg.FilesPerClient)
		n := 0
		// intendedWrite is when the client's next write event is due;
		// the difference between it and the actual fire time is the
		// dispatch gap noted to the wait hook.
		var intendedWrite sim.Time
		// The client's one operation in flight: its file, when its write
		// was issued and when its fsync was scheduled. Kept here rather
		// than captured per write, so the fsync handler is built once.
		var path string
		var start, fsyncIntended sim.Time
		var issue, fsync func()
		// next retires the current operation — completed or
		// abandoned after a tolerated error — and schedules the
		// client's following one.
		next := func() {
			n++
			opsLeft--
			if opsLeft == 0 {
				stopPump()
			}
			if n < cfg.OpsPerClient {
				d := think(rng)
				intendedWrite = loop.Clock().Now().Add(d)
				loop.After(d, "write", issue)
			}
		}
		issue = func() {
			if firstErr != nil {
				return
			}
			noteDispatchGap(intendedWrite)
			slot := n % cfg.FilesPerClient
			path = paths[slot]
			start = loop.Clock().Now()
			fsys.SetClient(client)
			if !created[slot] {
				// A file surviving from an earlier run is reused.
				if err := fsys.Create(path); err != nil && !errors.Is(err, vfs.ErrExist) {
					if tolerate(st, err) {
						next()
					}
					return
				}
				created[slot] = true
			}
			if err := fsys.Write(path, 0, payload); err != nil {
				if tolerate(st, err) {
					next()
				}
				return
			}
			// The fsync is a separate event: other clients' writes
			// scheduled at or before now run first, so the sync
			// request finds a batch to commit, not just this file.
			// Any writes that do run in between show up as the
			// fsync span's dispatch gap.
			fsyncIntended = loop.Clock().Now()
			loop.After(0, "fsync", fsync)
		}
		fsync = func() {
			if firstErr != nil {
				return
			}
			noteDispatchGap(fsyncIntended)
			fsys.SetClient(client)
			if err := syncFile(fsys, path); err != nil {
				if tolerate(st, err) {
					next()
				}
				return
			}
			lat := loop.Clock().Now().Sub(start)
			st.Ops++
			st.BytesWritten += int64(len(payload))
			st.TotalLatency += lat
			if lat > st.MaxLatency {
				st.MaxLatency = lat
			}
			st.Latency.Observe(lat.Seconds())
			next()
		}
		// Stagger the first issue by one nanosecond per client: a
		// deterministic ramp that fixes the initial arrival order
		// without meaningfully offsetting the clients.
		intendedWrite = res.Start.Add(sim.Duration(client))
		loop.At(intendedWrite, "write", issue)
	}

	if mt, ok := fsys.(metricsTicker); ok && mt.MetricsInterval() > 0 {
		every := mt.MetricsInterval()
		var pump func()
		pump = func() {
			pumpFired++
			pumpID = 0
			mt.TickMetrics()
			if firstErr == nil && opsLeft > 0 {
				pumpID = loop.After(every, "metrics", pump)
			}
		}
		pumpID = loop.After(every, "metrics", pump)
	}

	res.Events = loop.Run() - pumpFired
	fsys.SetClient(0)
	if firstErr != nil {
		return Result{}, firstErr
	}
	res.End = fsys.Clock().Now()
	for i := range res.PerClient {
		res.Ops += res.PerClient[i].Ops
		res.BytesWritten += res.PerClient[i].BytesWritten
		res.Errors += res.PerClient[i].Errors
	}
	return res, nil
}

// clientDir returns client c's working directory.
func clientDir(c int) string { return fmt.Sprintf("/client%02d", c) }

// think draws the pause before a client's next operation: a
// sub-microsecond stagger, so clients issue back to back without staying
// in lockstep, and same-seed runs repeat exactly.
func think(rng *rand.Rand) sim.Duration { return sim.Duration(rng.Int63n(1000)) }

// syncFile forces path's data to disk, preferring the single-file
// fsync when the target has one.
func syncFile(fsys FS, path string) error {
	if s, ok := fsys.(fileSyncer); ok {
		return s.FsyncFile(path)
	}
	return fsys.Sync()
}
