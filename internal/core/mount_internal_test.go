package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"testing"

	"lfs/internal/disk"
	"lfs/internal/sim"
)

// emptyVolumeBytes is the capacity the set-up budget and benchmark run
// at: lfsperf's smallfile and largefile volume.
const emptyVolumeBytes = 300 << 20

// TestMountAllocatesByUse: Format and Mount of an empty default volume
// pay for what the volume holds — one resident inode-map block, the
// cache's index — not for the 65 536 inodes it could hold, nor for a
// segment buffer per log head: a head buffers only the run it has not
// yet issued, so Mount, which assembles nothing, holds no buffer at
// all. Format alone pays for the store's first chunk and the skeleton's
// state, not for a segment buffer to assemble its four blocks in.
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
	if mountBytes > 512<<10 {
		t.Errorf("Mount of an empty volume allocated %d bytes, want under 512 KB", mountBytes)
	}
	for class, h := range fs.heads {
		if h.buf != nil {
			t.Errorf("head %d holds a %d-byte buffer before anything was written", class, len(h.buf))
		}
	}
}

// TestHeadBufferHoldsTheUnissuedRun: fsync-sized units keep the hot
// head's buffer a few blocks long, because each flush issues its run and
// the next unit starts at the buffer's front again; a write of three
// segments still grows it, at most to one segment, and lands and reads
// back. The cold head, on a volume that has not cleaned, holds nothing.
func TestHeadBufferHoldsTheUnissuedRun(t *testing.T) {
	cfg := smallConfig()
	fs := newTestFS(t, 16<<20, cfg)
	blk := bytes.Repeat([]byte{0x4B}, cfg.BlockSize)
	must(t, fs.Create("/f"))
	for i := 0; i < 64; i++ {
		must(t, fs.Write("/f", int64(i*cfg.BlockSize), blk))
		must(t, fs.FsyncFile("/f"))
	}
	if n := len(fs.heads[classHot].buf); n == 0 || n > cfg.SegmentSize/8 {
		t.Errorf("after 64 fsyncs of one block the hot head buffers %d bytes, want 1..%d", n, cfg.SegmentSize/8)
	}
	want := make([]byte, 3*cfg.SegmentSize)
	for i := range want {
		want[i] = byte(i*7 + i>>12)
	}
	must(t, fs.Create("/big"))
	must(t, fs.Write("/big", 0, want))
	must(t, fs.Sync())
	if n := len(fs.heads[classHot].buf); n > cfg.SegmentSize {
		t.Errorf("the hot head buffers %d bytes, more than a %d-byte segment", n, cfg.SegmentSize)
	}
	fs.bc.Clear()
	got := make([]byte, len(want))
	if n, err := fs.Read("/big", 0, got); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("3-segment write read back %d bytes (err %v), equal %v", n, err, bytes.Equal(got, want))
	}
	if fs.heads[classCold].buf != nil {
		t.Error("a volume that has not cleaned holds a cold-head buffer")
	}
}

// TestRollForwardIntoSmallBuffer: recovery reads each unit into the
// front of its head's buffer, growing it as the writer does. The tail
// here is two fsync-sized units and then units most of a segment long,
// the first at a nonzero block of its segment, so the remount grows a
// small buffer first and must grow it again for a unit larger than
// anything it has read; every byte comes back and the checker is clean.
func TestRollForwardIntoSmallBuffer(t *testing.T) {
	cfg := smallConfig()
	d := disk.NewMem(16<<20, sim.NewClock())
	must(t, Format(d, cfg))
	fs, err := Mount(d, cfg)
	must(t, err)
	bs := cfg.BlockSize
	small := func(name string, b byte) {
		must(t, fs.Create(name))
		must(t, fs.Write(name, 0, bytes.Repeat([]byte{b}, bs)))
		must(t, fs.FsyncFile(name))
	}
	for i := 0; i < 4; i++ {
		small(fmt.Sprintf("/s%d", i), byte(i+1))
	}
	must(t, fs.Checkpoint())
	since, seg := fs.writeSerial, fs.heads[classHot].seg
	small("/t0", 0xA0)
	small("/t1", 0xA1)
	big := make([]byte, cfg.SegmentSize*3/4)
	for i := range big {
		big[i] = byte(i*13 + i>>12)
	}
	must(t, fs.Create("/big"))
	must(t, fs.Write("/big", 0, big))
	must(t, fs.Sync())

	// The tail as it lies on disk: the two fsync units first, then one
	// past block 0 of its segment larger than any buffer they grow.
	units := unitsSince(t, fs, seg, since)
	size := func(u loggedUnit) int { return (u.SumBlocks + u.NBlocks) * bs }
	if len(units) < 3 || size(units[0]) > cfg.SegmentSize/8 || size(units[1]) > cfg.SegmentSize/8 {
		t.Fatalf("the tail does not start with two fsync-sized units: %+v", units)
	}
	largest := 0
	for _, u := range units[2:] {
		if u.blk > 0 {
			largest = max(largest, size(u))
		}
	}
	if largest <= cfg.SegmentSize/8 {
		t.Fatalf("no tail unit past block 0 outgrows the fsync units' buffer: %+v", units)
	}
	fs.Crash()

	fs2, err := Mount(d, cfg)
	must(t, err)
	if fs2.Stats().RollForwardUnits == 0 {
		t.Fatal("mount performed no roll-forward")
	}
	if n := len(fs2.heads[classHot].buf); n < largest {
		t.Errorf("recovery read a %d-byte unit into a %d-byte buffer", largest, n)
	}
	rep, err := fs2.Check()
	must(t, err)
	if len(rep.Problems) != 0 {
		t.Fatalf("check after roll-forward: %v", rep.Problems)
	}
	read := func(name string, want []byte) {
		got := make([]byte, len(want)+1)
		if n, err := fs2.Read(name, 0, got); err != nil || n != len(want) || !bytes.Equal(got[:n], want) {
			t.Errorf("%s read back %d bytes (err %v), want %d equal bytes", name, n, err, len(want))
		}
	}
	for i := 0; i < 4; i++ {
		read(fmt.Sprintf("/s%d", i), bytes.Repeat([]byte{byte(i + 1)}, bs))
	}
	read("/t0", bytes.Repeat([]byte{0xA0}, bs))
	read("/t1", bytes.Repeat([]byte{0xA1}, bs))
	read("/big", big)
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
	if got, want := hex.EncodeToString(sum[:]), "8a8bf05287265a5f9df257cba51fcbf57102ca0b196b5b4bc18df00ede961d3a"; got != want {
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
// fresh store, Format and Mount inside it; 300 MB is the smallfile and
// largefile volume, 64 MB one clients shard.
func BenchmarkFormatMount(b *testing.B) {
	cfg := DefaultConfig()
	for _, size := range []int64{emptyVolumeBytes, 64 << 20} {
		b.Run(fmt.Sprintf("%dMB", size>>20), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				debug.FreeOSMemory()
				b.StartTimer()
				d := disk.NewMem(size, sim.NewClock())
				if err := Format(d, cfg); err != nil {
					b.Fatal(err)
				}
				if _, err := Mount(d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
