package sim

import "fmt"

// CPU charges instruction costs against a Clock at a fixed MIPS
// (million instructions per second) rating. The paper's machines are
// characterised by their MIPS ratings (a 0.9-MIPS MicroVAX II, a
// 14-MIPS DECstation 3100, and the 16.6 MHz SPARC of the Sun-4/260),
// and the §3.1 argument — synchronous disk I/O decouples application
// speed from CPU speed — is reproduced by sweeping this rating.
type CPU struct {
	mips  float64
	clock *Clock

	// instructions counts the total instructions charged, for
	// reporting CPU-boundedness in experiment output.
	instructions int64
}

// Sun4MIPS approximates the Sun-4/260 used in the paper's evaluation.
const Sun4MIPS = 10.0

// NewCPU returns a CPU with the given MIPS rating charging the given
// clock. A non-positive rating panics: it would make time stand still
// or run backwards.
func NewCPU(mips float64, clock *Clock) *CPU {
	if mips <= 0 {
		panic(fmt.Sprintf("sim: non-positive MIPS rating %v", mips))
	}
	if clock == nil {
		panic("sim: NewCPU with nil clock")
	}
	return &CPU{mips: mips, clock: clock}
}

// Charge advances the clock by the time needed to execute n
// instructions. Charging a negative count panics.
func (c *CPU) Charge(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative instruction charge %d", n))
	}
	if n == 0 {
		return
	}
	c.instructions += n
	// n instructions at mips*1e6 instructions/second.
	ns := float64(n) / c.mips * 1e3 // = n/(mips*1e6) * 1e9
	c.clock.Advance(Duration(ns))
}

// Instructions returns the total instructions charged so far.
func (c *CPU) Instructions() int64 { return c.instructions }

// Costs is the per-operation instruction cost table shared by both
// file systems. The absolute values are calibrated so that, at the
// Sun-4/260's rating, LFS small-file creation is CPU-bound at a few
// hundred files per second (paper §5.1) while FFS remains bound by its
// synchronous disk writes. Experiments that sweep CPU speed leave this
// table fixed and vary only the MIPS rating.
type Costs struct {
	// Syscall is the fixed entry/exit overhead of any file system
	// call (trap, argument copy, dispatch).
	Syscall int64
	// PathComponent is charged per path component resolved during
	// lookup (directory search in the cache).
	PathComponent int64
	// Create covers inode allocation and directory entry insertion.
	Create int64
	// Unlink covers directory entry removal and inode free.
	Unlink int64
	// BlockSetup is charged per block touched by read or write
	// (cache lookup, bookkeeping).
	BlockSetup int64
	// CopyPerByte is charged per byte moved between the user buffer
	// and the cache.
	CopyPerByte float64
	// SegWriteSetup is charged per segment (or partial segment)
	// write assembled by the LFS writer.
	SegWriteSetup int64
	// SegBlockLayout is charged per block packed into a segment
	// (summary entry construction, address rewrite).
	SegBlockLayout int64
	// CleanPerBlock is charged per block examined by the cleaner
	// (liveness check plus copy bookkeeping).
	CleanPerBlock int64
	// CheckpointSetup is charged per checkpoint write.
	CheckpointSetup int64
	// DiskOpSetup is charged per disk request issued (driver and
	// interrupt overhead).
	DiskOpSetup int64
}

// DefaultCosts returns the calibrated cost table described above.
func DefaultCosts() Costs {
	return Costs{
		Syscall:         2000,
		PathComponent:   1500,
		Create:          12000,
		Unlink:          9000,
		BlockSetup:      2500,
		CopyPerByte:     1.0,
		SegWriteSetup:   40000,
		SegBlockLayout:  1200,
		CleanPerBlock:   2500,
		CheckpointSetup: 25000,
		DiskOpSetup:     1500,
	}
}

// Copy returns the instruction cost of copying n bytes.
func (c Costs) Copy(n int) int64 {
	if n <= 0 {
		return 0
	}
	//lfslint:allow floataccum the per-byte cost model is evaluated fresh per call; truncation is deterministic and nothing accumulates in float
	return int64(c.CopyPerByte * float64(n))
}
