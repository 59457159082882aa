package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lfs/internal/disk"
	"lfs/internal/layout"
	"lfs/internal/sim"
)

func TestSegUsageRoundTrip(t *testing.T) {
	u := segUsage{Live: 123456, Age: sim.Time(4 * sim.Second), State: segDirty}
	buf := make([]byte, segUsageEntrySize)
	u.encode(buf)
	if got := decodeSegUsage(buf); got != u {
		t.Fatalf("round trip: %+v vs %+v", got, u)
	}
	// Bytes 8-15 are reserved: an entry whose reserved bytes still hold
	// an older writer's last-append time decodes as if they were zero.
	binary.LittleEndian.PutUint64(buf[8:], uint64(9*sim.Second))
	if got := decodeSegUsage(buf); got != u {
		t.Fatalf("reserved bytes leaked into the entry: %+v vs %+v", got, u)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	refs := []blockRef{
		{Kind: kindData, Ino: 5, ID: 17, Version: 3},
		{Kind: kindIndirect, Ino: 5, ID: layout.IndSingle, Version: 3},
		{Kind: kindInodes},
		{Kind: kindImap, ID: 12},
	}
	buf := make([]byte, (1+len(refs))*4096)
	h := summaryHeader{
		Serial: 42, NBlocks: len(refs), SumBlocks: 1,
		Timestamp: sim.Time(7), DataCRC: layout.DataChecksum(buf[4096:]),
		Class: classCold, Age: sim.Time(3), // a relocation unit: data older than its write
	}
	encodeSummary(h, refs, buf[:4096])
	u, err := readUnit(buf, 0, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.summaryHeader != h {
		t.Fatalf("header: %+v vs %+v", u.summaryHeader, h)
	}
	if !reflect.DeepEqual(u.refs, refs) {
		t.Fatalf("refs: %+v vs %+v", u.refs, refs)
	}
}

func TestSummaryDetectsCorruption(t *testing.T) {
	refs := []blockRef{{Kind: kindData, Ino: 1, ID: 0, Version: 0}}
	h := summaryHeader{Serial: 1, NBlocks: 1, SumBlocks: 1}
	buf := make([]byte, 2*4096)
	encodeSummary(h, refs, buf[:4096])
	buf[40] ^= 0x01
	if _, err := readUnit(buf, 0, 4096, nil); !errors.Is(err, errSummaryChecksum) {
		t.Fatalf("corrupted summary read as %v", err)
	}
}

func TestSummaryRejectsGarbage(t *testing.T) {
	if _, err := readUnit(make([]byte, 4096), 0, 4096, nil); err == nil {
		t.Fatal("zero block decoded as summary")
	}
	if _, err := readUnit(make([]byte, 10), 0, 4096, nil); err == nil {
		t.Fatal("short buffer decoded as summary")
	}
}

func TestSummaryRoundTripProperty(t *testing.T) {
	f := func(serial uint64, n uint8, seed int64) bool {
		count := int(n%60) + 1
		rng := rand.New(rand.NewSource(seed))
		refs := make([]blockRef, count)
		for i := range refs {
			refs[i] = blockRef{
				Kind:    blockKind(rng.Intn(4)),
				Ino:     layout.Ino(rng.Uint32()),
				ID:      rng.Int63() - rng.Int63(),
				Version: rng.Uint32(),
			}
		}
		sumBlks := summaryBlocks(count, 4096)
		buf := make([]byte, (sumBlks+count)*4096)
		rng.Read(buf[sumBlks*4096:])
		h := summaryHeader{Serial: serial, NBlocks: count, SumBlocks: sumBlks, Timestamp: sim.Time(rng.Int63()),
			DataCRC: layout.DataChecksum(buf[sumBlks*4096:])}
		encodeSummary(h, refs, buf[:sumBlks*4096])
		u, err := readUnit(buf, 0, 4096, nil)
		return err == nil && u.summaryHeader == h && reflect.DeepEqual(u.refs, refs) && u.end == sumBlks+count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUnitVerdicts: what the unit reader says of each thing a walk can
// land on. The segment is eight 512-byte blocks; a valid unit sits at
// block 2 (a summary block and two data blocks). A unit whose payload
// fails its checksum is still decoded, for lfsdump to show.
func TestUnitVerdicts(t *testing.T) {
	const bs = 512
	segment := func(h summaryHeader, at int) []byte {
		seg := make([]byte, 8*bs)
		for i := 3 * bs; i < 5*bs; i++ {
			seg[i] = byte(i)
		}
		h.DataCRC = layout.DataChecksum(seg[3*bs : 5*bs])
		sum := make([]byte, 2*bs) // room for entries that spill past one block
		encodeSummary(h, make([]blockRef, h.NBlocks), sum)
		copy(seg[at*bs:], sum[:bs])
		return seg
	}
	valid := summaryHeader{Serial: 7, NBlocks: 2, SumBlocks: 1, Timestamp: 9}
	flip := func(seg []byte, off int) []byte { seg[off] ^= 0x10; return seg }
	for _, tc := range []struct {
		name      string
		seg       []byte
		blk       int
		want      error
		wantBlock int
	}{
		{"valid", segment(valid, 2), 2, nil, 5},
		{"zeroed block", segment(valid, 2), 0, errSummaryMagic, 0},
		{"short buffer", make([]byte, 10), 0, errSummaryShort, 0},
		{"flipped summary byte", flip(segment(valid, 2), 2*bs+40), 2, errSummaryChecksum, 0},
		{"sum blocks 1000", segment(summaryHeader{SumBlocks: 1000, NBlocks: 3}, 2), 2, errSummaryBounds, 0},
		{"no blocks at all", segment(summaryHeader{}, 2), 2, errSummaryBounds, 0},
		{"entries past the segment", segment(summaryHeader{SumBlocks: 2, NBlocks: 20}, 7), 7, errSummaryChecksum, 0},
		{"flipped payload byte", flip(segment(valid, 2), 4*bs+3), 2, errUnitData, 5},
	} {
		u, err := readUnit(tc.seg, tc.blk, bs, nil)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: verdict %v, want %v", tc.name, err, tc.want)
			continue
		}
		if err != nil && !errors.Is(err, errUnitData) {
			continue
		}
		if u.end != tc.wantBlock || len(u.refs) != u.NBlocks || len(u.data) != u.NBlocks*bs {
			t.Errorf("%s: unit ends at block %d with %d refs and %d data bytes", tc.name, u.end, len(u.refs), len(u.data))
		}
	}
}

// TestDumpReportsHoleInSealedSegment: lfsdump walks a segment by the
// cleaner's rule. A sealed segment's units reach its end, so where one
// has no unit although a unit still fits, the walk's end gets its own
// line; only an active segment's walk ends silently where no unit starts.
func TestDumpReportsHoleInSealedSegment(t *testing.T) {
	cfg := smallConfig()
	cfg.SegmentSize = 64 << 10
	fs := newTestFS(t, 8<<20, cfg)
	must(t, fs.Create("/f"))
	sealed := fs.heads[classHot].seg
	for i := 0; fs.usage[sealed].State != segDirty; i++ {
		must(t, fs.Write("/f", int64(i)*8192, make([]byte, 8192)))
		must(t, fs.Sync())
	}
	must(t, fs.Unmount())
	units := unitsSince(t, fs, sealed, 0)
	if len(units) < 2 {
		t.Fatalf("sealed segment %d holds %d units, want at least 2", sealed, len(units))
	}
	blk := units[1].blk
	must(t, fs.d.Store().WriteAt(make([]byte, fs.cfg.BlockSize), fs.blockSector(sealed, blk)*disk.SectorSize))

	var sb strings.Builder
	must(t, Dump(&sb, fs.d, true))
	if want := fmt.Sprintf("  seg %4d blk %4d: %v\n", sealed, blk, errSummaryMagic); !strings.Contains(sb.String(), want) {
		t.Fatalf("dump of a sealed segment with no unit at block %d lacks %q:\n%s", blk, want, sb.String())
	}
}

func TestMaxUnitBlocks(t *testing.T) {
	bs := 4096
	// Not even one data block fits in less than 2 blocks.
	if maxUnitBlocks(0, bs) != 0 || maxUnitBlocks(1, bs) != 0 {
		t.Fatal("tiny avail should fit nothing")
	}
	// n blocks plus their summary always fit in the reported avail.
	for avail := 2; avail <= 512; avail++ {
		n := maxUnitBlocks(avail, bs)
		if n < 1 {
			t.Fatalf("avail %d fits nothing", avail)
		}
		if summaryBlocks(n, bs)+n > avail {
			t.Fatalf("avail %d: %d blocks + %d summary overflow", avail, n, summaryBlocks(n, bs))
		}
		// Maximality: one more block must not fit.
		if summaryBlocks(n+1, bs)+n+1 <= avail {
			t.Fatalf("avail %d: %d not maximal", avail, n)
		}
	}
}

func TestBlockKindString(t *testing.T) {
	for k, want := range map[blockKind]string{
		kindData: "data", kindIndirect: "indirect", kindInodes: "inodes", kindImap: "imap",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if blockKind(9).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	st := checkpointState{
		Serial: 7, Timestamp: sim.Time(3 * sim.Second),
		HeadSeg: 5, HeadBlk: 100, WriteSerial: 99, LiveBytes: 1 << 20,
		ColdOpen: true, ColdSeg: 9, ColdBlk: 42,
		ImapAddrs: []layout.DiskAddr{1, layout.NilAddr, 3},
		Usage: []segUsage{
			{Live: 10, Age: 1, State: segClean},
			{Live: 20, Age: 1, State: segDirty},
			{Live: 0, Age: 3, State: segActive},
		},
	}
	size := ckptHeaderSize + len(st.ImapAddrs)*layout.AddrSize + len(st.Usage)*segUsageEntrySize + 4
	buf := make([]byte, (size+511)&^511)
	encodeCheckpoint(st, buf)
	got, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, st)
	}
}

// TestCheckpointColdHeadClosed: a closed cold head encodes as the
// sentinel, and the decoder must normalise the position to zero — a
// stale ColdSeg/ColdBlk must not leak through a closed head.
func TestCheckpointColdHeadClosed(t *testing.T) {
	st := checkpointState{
		Serial: 1, HeadSeg: 2, HeadBlk: 3,
		ColdOpen: false, ColdSeg: 14, ColdBlk: 77, // stale in-core values
		ImapAddrs: []layout.DiskAddr{1},
		Usage:     []segUsage{{Live: 5, Age: 1, State: segDirty}},
	}
	buf := make([]byte, 1024)
	encodeCheckpoint(st, buf)
	got, err := decodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ColdOpen || got.ColdSeg != 0 || got.ColdBlk != 0 {
		t.Fatalf("closed cold head decoded as open=%v seg=%d blk=%d",
			got.ColdOpen, got.ColdSeg, got.ColdBlk)
	}
}

// TestDecodeCheckpointV1Image: "LCKP" was the checkpoint format before
// "LCK2" (24-byte usage entries, no cold head) and its decoder is gone,
// so a region carrying that magic is bad input like any other magic.
// The newest checkpoint of a volume is re-stamped "LCKP" with its
// checksum made valid again — the only thing wrong with it is the
// magic — and must be rejected, mount falling back to the other region
// and rolling the log forward from there.
func TestDecodeCheckpointV1Image(t *testing.T) {
	cfg := smallConfig()
	fs := newTestFS(t, 32<<20, cfg)
	must(t, fs.Create("/a"))
	must(t, fs.Checkpoint())
	must(t, fs.Create("/b"))
	must(t, fs.Checkpoint())
	newest := fs.ckptSerial
	fs.Crash()

	le := binary.LittleEndian
	restamped := 0
	for _, sector := range []int64{int64(fs.sb.Ckpt0Sector), int64(fs.sb.Ckpt1Sector)} {
		region := make([]byte, fs.sb.CkptBytes)
		must(t, fs.d.Store().ReadAt(region, sector*disk.SectorSize))
		st, err := decodeCheckpoint(region)
		must(t, err)
		if st.Serial != newest {
			continue
		}
		le.PutUint32(region[0:], 0x4C434B50) // "LCKP"
		crcOff := ckptHeaderSize + len(st.ImapAddrs)*layout.AddrSize + len(st.Usage)*segUsageEntrySize
		le.PutUint32(region[crcOff:], layout.Checksum(region[:crcOff]))
		if _, err := decodeCheckpoint(region); err == nil || !strings.Contains(err.Error(), "bad checkpoint magic") {
			t.Fatalf("decoding an LCKP region: %v, want bad checkpoint magic", err)
		}
		must(t, fs.d.Store().WriteAt(region, sector*disk.SectorSize))
		restamped++
	}
	if restamped != 1 {
		t.Fatalf("re-stamped %d regions, want the one holding checkpoint %d", restamped, newest)
	}

	fs, err := Mount(fs.d, cfg)
	must(t, err)
	// The newest checkpoint had nothing after it in the log; replayed
	// units mean recovery started from the older one.
	if fs.stats.RollForwardUnits == 0 {
		t.Fatal("mount rolled nothing forward: it did not fall back to the older checkpoint")
	}
	for _, path := range []string{"/a", "/b"} {
		if _, err := fs.Stat(path); err != nil {
			t.Fatalf("after falling back to the older checkpoint: %v", err)
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	st := checkpointState{Serial: 1, ImapAddrs: []layout.DiskAddr{1}, Usage: []segUsage{{}}}
	buf := make([]byte, 1024)
	encodeCheckpoint(st, buf)
	buf[50] ^= 0xFF
	if _, err := decodeCheckpoint(buf); err == nil {
		t.Fatal("corrupted checkpoint decoded")
	}
	if _, err := decodeCheckpoint(make([]byte, 1024)); err == nil {
		t.Fatal("zero checkpoint decoded")
	}
}
