package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// the cold head holds no buffer for it. Format alone pays for the
// store's first chunk and the skeleton's state, not for a segment
// buffer to assemble its four blocks in.
func TestMountAllocatesByUse(t *testing.T) {
	cfg := DefaultConfig()
	d := disk.NewMem(emptyVolumeBytes, sim.NewClock())
	_, formatBytes := mallocs(func() { must(t, Format(d, cfg)) })
	if formatBytes > 3<<19 {
		t.Errorf("Format of an empty volume allocated %d bytes, want under 1.5 MB", formatBytes)
	}
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

// TestFormatSmallestGeometry formats, mounts and checks a volume of the
// smallest geometry Config.Validate accepts, where Format's two units
// fill the first segment exactly: a skeleton head buffer sized short of
// what Format places cannot hide behind the default config.
func TestFormatSmallestGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BlockSize, cfg.SegmentSize = 512, 4*512
	cfg.MaxInodes, cfg.CacheBlocks = 16, 9
	must(t, cfg.Validate())
	d := disk.NewMem(1<<20, sim.NewClock())
	must(t, Format(d, cfg))
	fs, err := Mount(d, cfg)
	must(t, err)
	rep, err := fs.Check()
	must(t, err)
	if !rep.Ok() || rep.Dirs != 1 || rep.Files != 0 {
		t.Fatalf("fresh volume: %d dirs, %d files, problems %v", rep.Dirs, rep.Files, rep.Problems)
	}
}

// TestFormatImageIsPinned holds a freshly formatted default 64 MB
// volume to a fixed image and simulated clock: how Format assembles its
// units in memory may change, what it writes and when may not. The
// store rounds 64 MB up to whole cylinders; the tail past it stays zero.
func TestFormatImageIsPinned(t *testing.T) {
	const size = 64 << 20
	d := disk.NewMem(size, sim.NewClock())
	must(t, Format(d, DefaultConfig()))
	img := make([]byte, d.Capacity())
	must(t, d.Store().ReadAt(img, 0))
	sum := sha256.Sum256(img[:size])
	if got, want := hex.EncodeToString(sum[:]), "486bca81d5fbf65e2394558b0db5f5e71ca92c56af82dbf5af8c1ae856bcb7f4"; got != want {
		t.Errorf("formatted image sha256 %s, want %s", got, want)
	}
	if !bytes.Equal(img[size:], make([]byte, len(img)-size)) {
		t.Error("Format wrote past the first 64 MB")
	}
	if got, want := d.Clock().Now(), sim.Time(68428715); got != want {
		t.Errorf("clock after Format %v, want %v", got, want)
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
