package core

import (
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

// initMetrics binds cfg.Metrics and registers every metric the plane
// exports. The probes are closures over fs and its subsystems; they
// run from Sampler sampling calls, which only ever happen with fs.mu
// held (the op seam ticks inline; TickMetrics/SampleMetricsNow lock), so
// they read lock-guarded state directly and never call the exported
// locking accessors. Every probe is a pure read: no clock, CPU, disk,
// or RNG access, so a sampling-enabled run replays the identical
// simulated timeline, statistics, and on-disk bytes (the golden
// zero-perturbation test pins this).
func (fs *FS) initMetrics() error {
	if fs.cfg.Metrics == nil {
		return nil
	}
	if err := fs.cfg.Metrics.Bind(); err != nil {
		return err
	}
	r := fs.cfg.Metrics.Registry()

	// Operation throughput, latency and fsync-by-phase come from the
	// op seam, first so the series order is stable.
	fs.op.RegisterMetrics(r)

	// Log activity.
	r.RatedCounter("log.blocks_written", func() int64 { return fs.stats.BlocksWritten })
	r.Counter("log.segments_sealed", func() int64 { return fs.stats.SegmentsSealed })
	r.Counter("log.checkpoints", func() int64 { return fs.stats.Checkpoints })
	r.RatedCounter("log.user_bytes", func() int64 { return fs.stats.UserBytesWritten })
	r.Counter("log.group_commits", func() int64 { return fs.stats.GroupCommits })
	r.Counter("log.piggybacked_syncs", func() int64 { return fs.stats.PiggybackedSyncs })

	// Segment state: free/clean counts, live data, and the
	// utilization distribution over dirty segments (§5.3's open
	// question, now a time series).
	totalSegs := int(fs.sb.Segments)
	r.Gauge("seg.clean", func() float64 { return float64(fs.cleanCount) })
	r.Gauge("seg.pending", func() float64 { return float64(fs.pendingClean) })
	r.Gauge("seg.live_bytes", func() float64 { return float64(fs.liveBytes) })
	r.Hist("seg.util", func() obs.Histogram {
		h := obs.NewUtilizationHistogram()
		segSize := float64(fs.sb.SegmentSize)
		for i := range fs.usage {
			if fs.usage[i].State == segDirty {
				h.Observe(float64(fs.usage[i].Live) / segSize)
			}
		}
		return h
	})

	// Cleaner: activations, reclaimed segments, the debt to the
	// clean-segment target, and the paper's running write cost.
	r.Counter("cleaner.runs", func() int64 { return fs.stats.CleanerRuns })
	r.Counter("cleaner.segments_cleaned", func() int64 { return fs.stats.SegmentsCleaned })
	r.Gauge("cleaner.debt_segments", func() float64 {
		debt := fs.cfg.cleanTarget(totalSegs) - fs.cleanCount
		if debt < 0 {
			debt = 0
		}
		return float64(debt)
	})
	r.Gauge("cleaner.write_cost", func() float64 {
		return obs.WriteCost(fs.stats.SegmentsCleaned*int64(fs.sb.SegmentSize), fs.stats.CleanerLiveCopied*int64(fs.cfg.BlockSize))
	})

	// File cache: hit ratio and dirty bytes pending write-back.
	r.Gauge("cache.hit_ratio", func() float64 { return fs.bc.Stats().HitRate() })
	r.Gauge("cache.dirty_bytes", func() float64 {
		return float64(fs.bc.DirtyCount()) * float64(fs.cfg.BlockSize)
	})

	// Disk: request counters, queue depth (instant + high-water), and
	// busy fraction, total and decomposed by cause.
	r.RatedCounter("disk.reads", func() int64 { return fs.d.Stats().Reads })
	r.RatedCounter("disk.writes", func() int64 { return fs.d.Stats().Writes })
	r.Gauge("disk.queue.depth", func() float64 { return float64(fs.d.QueueDepth()) })
	r.Gauge("disk.queue.max", func() float64 { return float64(fs.d.MaxQueueDepth()) })
	r.FracCounter("disk.busy_ns", func() int64 { return int64(fs.d.Stats().BusyTime) })
	for c := disk.IOCause(0); c < disk.NumCauses; c++ {
		cause := c
		r.FracCounter("disk.busy_ns."+cause.String(), func() int64 {
			return int64(fs.d.Stats().ByCause[cause].Busy)
		})
	}
	return nil
}

// MetricsInterval is the attached sampler's spacing in simulated time,
// zero when the plane is disabled; the multi-client event loop pumps
// TickMetrics at it.
func (fs *FS) MetricsInterval() sim.Duration { return fs.cfg.Metrics.Interval() }

// TickMetrics samples the metrics plane if the sampling interval has
// elapsed. Operations tick implicitly; the multi-client event loop
// pumps this between operations so long gaps still get samples. A
// no-op without an attached sampler.
func (fs *FS) TickMetrics() {
	if fs.cfg.Metrics == nil {
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cfg.Metrics.Tick(fs.clock.Now())
}

// SampleMetricsNow forces a sample at the current simulated time
// regardless of the interval — experiments take one at run end so the
// final sample equals the end-of-run aggregates exactly. A no-op
// without an attached sampler.
func (fs *FS) SampleMetricsNow() {
	if fs.cfg.Metrics == nil {
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cfg.Metrics.SampleNow(fs.clock.Now())
}
