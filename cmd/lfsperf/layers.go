package main

import (
	"strings"

	"lfs/internal/core"
	"lfs/internal/disk"
	"lfs/internal/obs"
	"lfs/internal/sim"
)

// ratio is a/b, 0 when b is 0 (a layer that did no work has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues computes the per-layer metrics of one traced repetition
// r of workload w. untraced are the run's untraced repetitions (the
// tracing-overhead base and the host-runtime spread), base the FFS
// baseline arm (nil when the workload has none).
func layerValues(w *workload, r *rep, untraced []repResult, base *rep, v map[string]float64) {
	o := &r.out
	delta := func(f func(core.StatsSnapshot) int64) float64 { return float64(o.sumDelta(f)) }
	elapsed := float64(o.simElapsed)
	calls := float64(o.calls)

	v["bench.lat_samples"] = float64(o.latSamples)

	// sim.
	mips := r.insts[0].Config().MIPS
	instr := delta(func(s core.StatsSnapshot) int64 { return s.CPUInstructions })
	v["sim.cpu_frac"] = ratio(instr/mips/1e6, o.simElapsed.Seconds())
	v["sim.cpu_instr_per_op"] = ratio(instr, calls)

	// The paper's bars.
	for _, p := range o.phases {
		switch p.Name {
		case "create", "read", "delete":
			v["phase."+p.Name+".sim_ops_per_s"] = p.OpsPerSec()
		case "seq write", "seq read", "rand write", "rand read", "seq reread":
			v["phase."+strings.ReplaceAll(p.Name, " ", "_")+".sim_kb_per_s"] = p.KBPerSec()
		}
	}

	// Host time by layer, from the benchmark's own spans over the
	// measured phase.
	m := r.tr.spans[r.measuredSpan]
	measuredHost := float64(m.End - m.Start)
	self := selfTimes(r.tr.spans)
	byKind := make(map[string][]float64)
	var benchSelf, vfsHost, storeHost, serverHost, serverSelf float64
	for i, s := range r.tr.spans {
		if s.Start < m.Start || s.End > m.End {
			continue
		}
		d := float64(s.End - s.Start)
		switch s.Layer {
		case layerBench:
			benchSelf += float64(self[i])
		case layerVFS:
			byKind[s.Name] = append(byKind[s.Name], d)
			vfsHost += d
		case layerStore:
			storeHost += d
		case layerServer:
			serverHost += d
			serverSelf += float64(self[i])
		}
	}
	for _, k := range vfsKinds {
		name := kindNames[k]
		v["vfs."+name+".host_ns"] = median(byKind[name])
		v["vfs."+name+".sim_ms"] = ratio(ms(sim.Duration(o.kindSimNS[k])), float64(o.kindCount[k]))
	}
	v["bench.self_host_share"] = ratio(benchSelf, measuredHost)
	v["core.self_host_share"] = ratio(vfsHost-storeHost, measuredHost)
	v["store.host_ms"] = storeHost / 1e6
	v["store.host_share"] = ratio(storeHost, measuredHost)
	v["server.run.host_ms"] = serverHost / 1e6
	v["server.self_host_share"] = ratio(serverSelf, measuredHost)
	for _, s := range r.stores {
		v["store.read_calls"] += float64(s.readCalls)
		v["store.write_calls"] += float64(s.writeCalls)
		v["store.bytes_read"] += float64(s.bytesRead)
		v["store.bytes_written"] += float64(s.bytesWritten)
	}

	// cache.
	hits := delta(func(s core.StatsSnapshot) int64 { return s.Cache.Hits })
	misses := delta(func(s core.StatsSnapshot) int64 { return s.Cache.Misses })
	v["cache.hits"], v["cache.misses"] = hits, misses
	v["cache.hit_rate"] = ratio(hits, hits+misses)
	v["cache.evictions"] = delta(func(s core.StatsSnapshot) int64 { return s.Cache.Evictions })
	v["cache.inserted"] = delta(func(s core.StatsSnapshot) int64 { return s.Cache.Inserted })

	// core: writer, cleaner, group commit, recovery.
	// The delta of the log counters as one Stats value, so that write
	// amplification and write cost are core's own formulas.
	logDelta := core.StatsSnapshot{SegmentSize: o.after[0].SegmentSize, BlockSize: o.after[0].BlockSize}
	logDelta.Log.BlocksWritten = o.sumDelta(func(s core.StatsSnapshot) int64 { return s.Log.BlocksWritten })
	logDelta.Log.UserBytesWritten = o.sumDelta(func(s core.StatsSnapshot) int64 { return s.Log.UserBytesWritten })
	logDelta.Log.SegmentsCleaned = o.sumDelta(func(s core.StatsSnapshot) int64 { return s.Log.SegmentsCleaned })
	logDelta.Log.CleanerLiveCopied = o.sumDelta(func(s core.StatsSnapshot) int64 { return s.Log.CleanerLiveCopied })
	v["core.blocks_written"] = float64(logDelta.Log.BlocksWritten)
	v["core.checkpoints"] = delta(func(s core.StatsSnapshot) int64 { return s.Log.Checkpoints })
	v["core.log_write_amp"] = logDelta.Log.WriteAmplification(logDelta.BlockSize)
	var live, capacity float64
	for i, fs := range r.insts {
		live += float64(o.after[i].LiveBytes)
		capacity += float64(fs.LogCapacity())
	}
	v["core.disk_util_reached"] = ratio(live, capacity)
	copied := float64(logDelta.Log.CleanerLiveCopied)
	examined := delta(func(s core.StatsSnapshot) int64 { return s.Log.CleanerBlocksExamined })
	v["core.write_cost"] = logDelta.WriteCost()
	v["core.cleaner_runs"] = delta(func(s core.StatsSnapshot) int64 { return s.Log.CleanerRuns })
	v["core.segments_cleaned"] = float64(logDelta.Log.SegmentsCleaned)
	v["core.cleaner_blocks_examined"] = examined
	v["core.cleaner_live_copied"] = copied
	v["core.cleaner_bytes_reclaimed"] = delta(func(s core.StatsSnapshot) int64 { return s.Log.CleanerBytesReclaimed })
	v["core.cleaned_util_mean"] = ratio(copied, examined)
	v["core.clean_once.host_us_per_seg"] = o.cleanUS
	v["core.group_commits"] = delta(func(s core.StatsSnapshot) int64 { return s.Log.GroupCommits })
	v["core.piggybacked_syncs"] = delta(func(s core.StatsSnapshot) int64 { return s.Log.PiggybackedSyncs })
	v["core.recovery.sim_ms"] = ms(o.simRecovery)
	v["core.rollforward_units"] = float64(o.rollforward)
	v["core.mount.host_ms"] = float64(o.mountHost.Microseconds()) / 1e3
	v["core.check.host_ms"] = float64(o.checkHost.Microseconds()) / 1e3

	// disk.
	diskDelta := func(f func(disk.Stats) int64) float64 {
		return delta(func(s core.StatsSnapshot) int64 { return f(s.Disk) })
	}
	writes := diskDelta(func(d disk.Stats) int64 { return d.Writes })
	written := diskDelta(disk.Stats.BytesWritten)
	v["disk.reads"] = diskDelta(func(d disk.Stats) int64 { return d.Reads })
	v["disk.writes"] = writes
	v["disk.sync_writes"] = float64(o.syncWrites)
	v["disk.bytes_read"] = diskDelta(disk.Stats.BytesRead)
	v["disk.bytes_written"] = written
	v["disk.seeks"] = diskDelta(func(d disk.Stats) int64 { return d.Seeks })
	v["disk.mean_write_kb"] = ratio(written/1024, writes)
	v["disk.busy_frac"] = ratio(diskDelta(func(d disk.Stats) int64 { return int64(d.BusyTime) }), elapsed*float64(len(r.insts)))
	for _, c := range busyCauses {
		cause := c.cause
		v["disk.busy_ms."+c.name] = diskDelta(func(d disk.Stats) int64 { return int64(d.ByCause[cause].Busy) }) / float64(sim.Millisecond)
	}
	v["disk.max_queue_depth"] = float64(o.maxQueueDepth)

	// shard: a single log counts as one shard.
	v["shard.count"] = float64(len(r.insts))
	var maxOps, sumOps float64
	busyMin, busyMax := 1.0, 0.0
	for i, a := range o.aggs {
		var n float64
		for _, op := range a.Ops {
			n += float64(op.Count)
		}
		sumOps += n
		maxOps = max(maxOps, n)
		busy := ratio(float64(o.after[i].Disk.BusyTime-o.before[i].Disk.BusyTime), elapsed)
		busyMin, busyMax = min(busyMin, busy), max(busyMax, busy)
	}
	v["shard.ops_imbalance"] = ratio(maxOps, sumOps/float64(len(o.aggs)))
	v["shard.busy_frac_min"], v["shard.busy_frac_max"] = busyMin, busyMax

	// obs: the program's own spans over the measured phase. The phase
	// shares are of the latency op's summed latency.
	isLatencyOp := make(map[string]bool)
	for _, name := range w.latencyOps {
		isLatencyOp[name] = true
	}
	var phase [obs.NumPhaseKinds]float64
	var latTotal, queueWait, fanout, fsyncs, exact float64
	for _, s := range o.obsSpans {
		if s.PhasesExact() {
			exact++
		}
		for _, p := range s.Phases {
			if p.Kind == obs.PhaseQueueWait {
				queueWait += float64(p.Dur)
			}
			if p.Kind == obs.PhaseFanout {
				fanout += float64(p.Dur)
			}
			if isLatencyOp[s.Op] && p.Kind < obs.NumPhaseKinds {
				phase[p.Kind] += float64(p.Dur)
			}
		}
		if isLatencyOp[s.Op] {
			latTotal += float64(s.Latency())
		}
		if s.Op == "fsync" {
			fsyncs++
		}
	}
	spans := float64(len(o.obsSpans))
	v["obs.spans"] = spans
	for _, a := range o.aggs {
		for _, io := range a.IO {
			v["obs.events"] += float64(io.Requests)
		}
	}
	v["obs.phases_exact_frac"] = ratio(exact, spans)
	for k := obs.PhaseKind(0); k < obs.NumPhaseKinds; k++ {
		v["obs.phase."+k.String()+"_share"] = ratio(phase[k], latTotal)
	}
	v["disk.queue_wait_ms_mean"] = ratio(queueWait/float64(sim.Millisecond), spans)
	v["shard.fanout_wait_ms_mean"] = ratio(fanout/float64(sim.Millisecond), fsyncs)
	v["obs.trace_overhead_frac"] = ratio(float64(o.runHost), float64(fastest(untraced).runHost)) - 1

	// sched and server.
	v["sched.events"] = float64(o.server.Events)
	v["server.errors"] = float64(o.server.Errors)

	// The FFS baseline arm.
	if base != nil {
		b := &base.out
		ffsOps := float64(b.calls) / b.simElapsed.Seconds()
		v["ffs.sim_ops_per_s"] = ffsOps
		v["ffs.sync_writes"] = float64(b.syncWrites)
		v["ffs.host_ops_per_s"] = float64(b.calls) / b.runHost.Seconds()
		v["ffs.host_allocs_per_op"] = float64(b.mallocs) / float64(b.calls)
		v["ffs.lfs_speedup_x"] = ratio(calls/o.simElapsed.Seconds(), ffsOps)
	}

	// The host runtime behind host_ops_per_s, over the untraced
	// repetitions.
	var wall []float64
	for i := range untraced {
		wall = append(wall, untraced[i].runHost.Seconds())
	}
	q1, q2, q3 := quartiles(wall)
	best := fastest(untraced)
	v["host.wall_s_median"], v["host.wall_s_iqr"] = q2, q3-q1
	v["host.cpu_s"] = best.cpu.Seconds()
	v["host.gc_cycles"] = float64(best.gcCycles)
	v["host.gc_cpu_frac"] = gcCPUFraction()
}
