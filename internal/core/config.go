// Package core implements the paper's contribution: the LFS
// log-structured storage manager. The disk is treated as a segmented
// append-only log. All modifications — file data, directories,
// indirect blocks, inodes, and inode-map blocks — accumulate in the
// file cache and are written to disk in large sequential segment
// transfers. Nothing is ever updated in place.
//
// The major data structures follow §4 of the paper:
//
//   - segments (§4.3): large fixed-size disk regions, linked into a
//     logical log, each with summary blocks identifying every block
//     it holds (§4.3.1);
//   - the inode map (§4.2.1): inode number → current inode disk
//     address, allocation state, version, and access time (footnote
//     2), partitioned into blocks cached and logged like file blocks;
//   - the segment usage array (§4.3.4): per-segment live bytes,
//     exact here where the paper estimates them, guiding the cleaner;
//   - the segment cleaner (§4.3.2–4.3.4): two-phase incremental GC
//     that reads fragmented segments and compacts their live blocks;
//   - checkpoints (§4.4.1): two alternating checkpoint regions from
//     which mount recovers instantly, plus roll-forward through the
//     segment summaries (the paper's "ultimate" recovery scheme,
//     implemented here) to recover work since the last checkpoint.
package core

import (
	"fmt"

	"lfs/internal/obs"
	"lfs/internal/sim"
)

// CleanPolicy selects which segments the cleaner picks.
type CleanPolicy int

const (
	// CleanGreedy picks the segments with the fewest live bytes —
	// the policy of this paper.
	CleanGreedy CleanPolicy = iota
	// CleanCostBenefit weights free space by segment age
	// (benefit/cost = (1-u)·age/(1+u)), the refinement introduced
	// in the authors' follow-up work; included as an ablation.
	CleanCostBenefit
)

// String names the policy.
func (p CleanPolicy) String() string {
	if p == CleanCostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// Config carries the tunables of an LFS instance. The zero value is
// not valid; use DefaultConfig.
type Config struct {
	// BlockSize is the file system block size; the paper used 4 KB.
	BlockSize int
	// SegmentSize is the log segment size; the paper used 1 MB,
	// sized so the seek at the start of a segment write is
	// amortised across a long transfer (§4.3).
	SegmentSize int
	// MaxInodes bounds the inode map.
	MaxInodes int
	// CacheBlocks is the file cache capacity in blocks (~15 MB in
	// the paper's testbed).
	CacheBlocks int
	// CheckpointInterval bounds the crash-loss window (§4.4.1,
	// 30 seconds).
	CheckpointInterval sim.Duration
	// CleanThresholdSegments is the clean-segment low watermark
	// that activates the cleaner (§4.3.4). Zero means auto
	// (max(2, segments/32)).
	CleanThresholdSegments int
	// CleanTargetSegments is how many clean segments the cleaner
	// tries to reach once activated. Zero means auto (2×threshold).
	CleanTargetSegments int
	// MinLiveFraction stops cleaning segments that are at least
	// this utilised ("segments are cleaned until all segments are
	// either clean or contain at least a file-system-settable
	// fraction of live blocks", §4.3.4).
	MinLiveFraction float64
	// MaxLiveFraction is the disk-space admission limit; writes
	// that would push live data beyond this fraction of the log
	// fail with ErrNoSpace, keeping slack for the cleaner.
	MaxLiveFraction float64
	// Policy selects the cleaning policy.
	Policy CleanPolicy
	// Segregation routes cleaner-relocated blocks to a separate open
	// segment (the cold head) instead of remixing them with fresh
	// writes, so cold data compacts into stable high-utilization
	// segments — the age-sorting §3.6 pairs with cost-benefit
	// selection. Off reproduces the single-head writer, as the
	// ablation arm of the cleaning-curve experiment.
	Segregation bool
	// RollForward enables roll-forward recovery through segment
	// summaries at mount (on by default; off reproduces the
	// paper's "current implementation" that loses everything since
	// the last checkpoint).
	RollForward bool
	// GroupCommit batches concurrent fsyncs: a sync request flushes
	// everything dirty in one segment transfer, so a later fsync whose
	// data rode that transfer finds nothing left to write and only
	// waits for the disk (it piggybacks). This is the log analogue of
	// group commit in logging databases — §4.1's observation that "a
	// single [log] write can handle multiple sync requests" — and it
	// is what makes small-file throughput scale with concurrent
	// clients. Off by default: a lone client gains nothing, and the
	// default fsync path touches only the synced file's blocks.
	GroupCommit bool
	// MIPS is the simulated CPU speed.
	MIPS float64
	// Trace, when non-nil, receives operation spans, cause-tagged
	// disk events, and cleaner activation records. Mount registers it
	// as the disk's tracer. A nil recorder costs nothing; a non-nil
	// one never changes the simulated timeline.
	Trace *obs.Recorder
	// Metrics, when non-nil, samples the metrics plane: Mount binds
	// the sampler (a sampler serves exactly one instance) and
	// registers every producer; thereafter each operation tick
	// appends a time-series sample whenever the simulated clock
	// crosses the sampler's interval. Like Trace, a nil sampler costs
	// nothing and a non-nil one never changes the simulated timeline,
	// the statistics, or the bytes on disk.
	Metrics *obs.Sampler
}

// DefaultConfig returns the paper's evaluation configuration: 4 KB
// blocks, 1 MB segments, ~15 MB cache, 30-second write-back and
// checkpoints, greedy cleaning.
func DefaultConfig() Config {
	return Config{
		BlockSize:          4096,
		SegmentSize:        1 << 20,
		MaxInodes:          65536,
		CacheBlocks:        3840, // ~15 MB at 4 KB
		CheckpointInterval: 30 * sim.Second,
		MinLiveFraction:    0.95,
		MaxLiveFraction:    0.85,
		Policy:             CleanGreedy,
		Segregation:        true,
		RollForward:        true,
		MIPS:               sim.Sun4MIPS,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BlockSize <= 0 || c.BlockSize%512 != 0 {
		return fmt.Errorf("lfs: block size %d not a positive multiple of the sector size", c.BlockSize)
	}
	if c.SegmentSize < 4*c.BlockSize || c.SegmentSize%c.BlockSize != 0 {
		return fmt.Errorf("lfs: segment size %d must be a multiple of the block size and hold several blocks", c.SegmentSize)
	}
	if c.MaxInodes < 16 {
		return fmt.Errorf("lfs: max inodes %d too small", c.MaxInodes)
	}
	if c.CacheBlocks <= 8 {
		return fmt.Errorf("lfs: cache of %d blocks too small", c.CacheBlocks)
	}
	if c.CheckpointInterval <= 0 {
		return fmt.Errorf("lfs: non-positive checkpoint interval")
	}
	if c.MinLiveFraction <= 0 || c.MinLiveFraction > 1 {
		return fmt.Errorf("lfs: MinLiveFraction %v out of (0,1]", c.MinLiveFraction)
	}
	if c.MaxLiveFraction <= 0 || c.MaxLiveFraction >= 1 {
		return fmt.Errorf("lfs: MaxLiveFraction %v out of (0,1)", c.MaxLiveFraction)
	}
	if c.MIPS <= 0 {
		return fmt.Errorf("lfs: non-positive MIPS %v", c.MIPS)
	}
	return nil
}

// blocksPerSegment returns the segment capacity in blocks.
func (c Config) blocksPerSegment() int { return c.SegmentSize / c.BlockSize }

// sectorsPerBlock returns the sectors per file system block.
func (c Config) sectorsPerBlock() int64 { return int64(c.BlockSize / 512) }

// cleanThreshold resolves the clean-segment low watermark.
func (c Config) cleanThreshold(totalSegments int) int {
	if c.CleanThresholdSegments > 0 {
		return c.CleanThresholdSegments
	}
	// The floor of 3 covers a flush's worst-case demand: one
	// segment of application dirty data, one of cleaner-relocated
	// live data, and metadata spill.
	t := totalSegments / 32
	if t < 3 {
		t = 3
	}
	return t
}

// cleanTarget resolves the cleaner's clean-segment goal.
func (c Config) cleanTarget(totalSegments int) int {
	if c.CleanTargetSegments > 0 {
		return c.CleanTargetSegments
	}
	return 2 * c.cleanThreshold(totalSegments)
}
