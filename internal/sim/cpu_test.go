package sim

import (
	"testing"
	"testing/quick"
)

func TestCPUCharge(t *testing.T) {
	clock := NewClock()
	cpu := NewCPU(10, clock) // 10 MIPS: 1e7 instructions/second.
	cpu.Charge(1e7)
	if got := clock.Now(); got != Time(Second) {
		t.Fatalf("1e7 instructions at 10 MIPS took %v, want 1s", got)
	}
	if cpu.Instructions() != 1e7 {
		t.Fatalf("Instructions = %d", cpu.Instructions())
	}
}

func TestCPUChargeZero(t *testing.T) {
	clock := NewClock()
	cpu := NewCPU(1, clock)
	cpu.Charge(0)
	if clock.Now() != 0 {
		t.Fatal("zero charge advanced clock")
	}
}

func TestCPUChargeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	NewCPU(1, NewClock()).Charge(-1)
}

func TestCPUInvalidMIPSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero MIPS did not panic")
		}
	}()
	NewCPU(0, NewClock())
}

func TestCPUNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil clock did not panic")
		}
	}()
	NewCPU(1, nil)
}

func TestFasterCPUTakesLessTime(t *testing.T) {
	slow, fast := NewClock(), NewClock()
	NewCPU(0.9, slow).Charge(1e6)  // MicroVAX II
	NewCPU(14.0, fast).Charge(1e6) // DECstation 3100
	if slow.Now() <= fast.Now() {
		t.Fatalf("slow CPU (%v) not slower than fast CPU (%v)", slow.Now(), fast.Now())
	}
	ratio := float64(slow.Now()) / float64(fast.Now())
	if ratio < 15 || ratio > 16 {
		t.Fatalf("speed ratio = %.2f, want ~15.6 (14/0.9)", ratio)
	}
}

func TestCopyCost(t *testing.T) {
	if CopyCost(0) != 0 || CopyCost(-5) != 0 {
		t.Fatal("CopyCost of non-positive size should cost 0")
	}
	if got := CopyCost(1000); got != 1000 {
		t.Fatalf("CopyCost(1000) = %d, want 1000", got)
	}
}

// Property: charging is additive — charging a+b equals charging a then b.
func TestCPUChargeAdditiveProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		c1, c2 := NewClock(), NewClock()
		cpu1, cpu2 := NewCPU(5, c1), NewCPU(5, c2)
		cpu1.Charge(int64(a) + int64(b))
		cpu2.Charge(int64(a))
		cpu2.Charge(int64(b))
		// Floating point rounding may differ by at most a nanosecond
		// per charge.
		diff := int64(c1.Now()) - int64(c2.Now())
		if diff < 0 {
			diff = -diff
		}
		return diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
