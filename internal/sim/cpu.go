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

// The per-operation instruction cost table shared by both file
// systems. The absolute values are calibrated so that, at the
// Sun-4/260's rating, LFS small-file creation is CPU-bound at a few
// hundred files per second (paper §5.1) while FFS remains bound by its
// synchronous disk writes. Experiments that sweep CPU speed leave this
// table fixed and vary only the MIPS rating.
const (
	// CostSyscall is the fixed entry/exit overhead of any file system
	// call (trap, argument copy, dispatch).
	CostSyscall int64 = 2000
	// CostPathComponent is charged per path component resolved during
	// lookup (directory search in the cache).
	CostPathComponent int64 = 1500
	// CostCreate covers inode allocation and directory entry insertion.
	CostCreate int64 = 12000
	// CostUnlink covers directory entry removal and inode free.
	CostUnlink int64 = 9000
	// CostBlockSetup is charged per block touched by read or write
	// (cache lookup, bookkeeping).
	CostBlockSetup int64 = 2500
	// CostSegWriteSetup is charged per segment (or partial segment)
	// write assembled by the LFS writer.
	CostSegWriteSetup int64 = 40000
	// CostSegBlockLayout is charged per block packed into a segment
	// (summary entry construction, address rewrite).
	CostSegBlockLayout int64 = 1200
	// CostCleanPerBlock is charged per block examined by the cleaner
	// (liveness check plus copy bookkeeping).
	CostCleanPerBlock int64 = 2500
	// CostCheckpointSetup is charged per checkpoint write.
	CostCheckpointSetup int64 = 25000
	// CostDiskOpSetup is charged per disk request issued (driver and
	// interrupt overhead).
	CostDiskOpSetup int64 = 1500
)

// CopyCost returns the instruction cost of moving n bytes between the
// user buffer and the cache: one instruction per byte.
func CopyCost(n int) int64 { return int64(max(n, 0)) }
