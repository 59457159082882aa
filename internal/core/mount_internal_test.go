package core

import (
	"runtime/debug"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

// emptyVolumeBytes is the capacity the set-up budget and benchmark run
// at: lfsperf's smallfile and largefile volume.
const emptyVolumeBytes = 300 << 20

// TestMountAllocatesByUse: Format and Mount of an empty default volume
// pay for what the volume holds — one resident inode-map block, the hot
// head's segment buffer, the cache's index — not for the 65 536 inodes
// it could hold, and a mount that found nothing to roll forward into
// the cold head holds no buffer for it.
func TestMountAllocatesByUse(t *testing.T) {
	cfg := DefaultConfig()
	d := disk.NewMem(emptyVolumeBytes, sim.NewClock())
	_, formatBytes := mallocs(func() { must(t, Format(d, cfg)) })
	var fs *FS
	_, mountBytes := mallocs(func() {
		var err error
		fs, err = Mount(d, cfg)
		must(t, err)
	})
	t.Logf("Format %d bytes, Mount %d bytes", formatBytes, mountBytes)
	if total := formatBytes + mountBytes; total > 4<<20 {
		t.Errorf("Format+Mount of an empty volume allocated %d bytes, want under 4 MB", total)
	}
	if mountBytes > 3<<19 {
		t.Errorf("Mount of an empty volume allocated %d bytes, want under 1.5 MB", mountBytes)
	}
	if fs.heads[classHot].buf == nil {
		t.Error("the hot head's segment buffer was left for the first flush to allocate")
	}
	must(t, fs.Create("/f"))
	must(t, fs.Write("/f", 0, make([]byte, 3*cfg.SegmentSize)))
	must(t, fs.Sync())
	if fs.heads[classCold].buf != nil {
		t.Error("a volume that has not cleaned holds a cold-head segment buffer")
	}
}

// BenchmarkFormatMount times set-up as lfsperf does: the previous
// volume collected and its pages returned outside the timer, then a
// fresh store, Format and Mount inside it.
func BenchmarkFormatMount(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		debug.FreeOSMemory()
		b.StartTimer()
		d := disk.NewMem(emptyVolumeBytes, sim.NewClock())
		if err := Format(d, cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := Mount(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
