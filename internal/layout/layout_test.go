package layout

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInodeEncodeDecodeRoundTrip(t *testing.T) {
	in := NewInode(42, ModeFile|0o644)
	in.Nlink = 3
	in.Size = 123456789
	in.Mtime = 111
	in.Ctime = 222
	in.Direct[0] = 1000
	in.Direct[11] = 9999
	in.Indirect = 5000
	in.DoubleIndirect = 6000

	buf := make([]byte, InodeSize)
	in.Encode(buf)
	got, err := DecodeInode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}

func TestInodeDecodeDetectsCorruption(t *testing.T) {
	in := NewInode(7, ModeDir|0o755)
	buf := make([]byte, InodeSize)
	in.Encode(buf)
	buf[10] ^= 0xFF
	if _, err := DecodeInode(buf); err == nil {
		t.Fatal("corrupted inode decoded without error")
	}
}

func TestInodeDecodeShortBuffer(t *testing.T) {
	if _, err := DecodeInode(make([]byte, 10)); err == nil {
		t.Fatal("short buffer decoded")
	}
}

func TestInodeEncodeShortBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short Encode buffer did not panic")
		}
	}()
	in := NewInode(1, ModeFile)
	in.Encode(make([]byte, 10))
}

func TestNewInodeHasNilPointers(t *testing.T) {
	in := NewInode(5, ModeFile)
	for i, a := range in.Direct {
		if !a.IsNil() {
			t.Fatalf("Direct[%d] = %v, want nil", i, a)
		}
	}
	if !in.Indirect.IsNil() || !in.DoubleIndirect.IsNil() {
		t.Fatal("indirect pointers not nil")
	}
	if !in.Allocated() {
		t.Fatal("fresh inode not allocated")
	}
	if (&Inode{}).Allocated() {
		t.Fatal("zero inode reported allocated")
	}
}

func TestFileMode(t *testing.T) {
	d := ModeDir | 0o755
	f := ModeFile | 0o644
	if !d.IsDir() || d.IsRegular() {
		t.Fatal("dir mode misclassified")
	}
	if !f.IsRegular() || f.IsDir() {
		t.Fatal("file mode misclassified")
	}
}

func TestDiskAddrString(t *testing.T) {
	if NilAddr.String() != "-" {
		t.Fatalf("NilAddr.String() = %q", NilAddr.String())
	}
	if DiskAddr(17).String() != "17" {
		t.Fatalf("DiskAddr(17).String() = %q", DiskAddr(17).String())
	}
}

func TestAddrBlockRoundTrip(t *testing.T) {
	addrs := []DiskAddr{1, NilAddr, 3, 0, 12345678}
	buf := make([]byte, (len(addrs)+1)*AddrSize)
	FillNil(buf)
	for i, a := range addrs {
		SetAddrAt(buf, i, a)
	}
	got := make([]DiskAddr, len(addrs))
	for i := range got {
		got[i] = AddrAt(buf, i)
	}
	if !reflect.DeepEqual(got, addrs) {
		t.Fatalf("addr block round trip mismatch: %v vs %v", got, addrs)
	}
	if a := AddrAt(buf, len(addrs)); !a.IsNil() {
		t.Fatalf("an entry never set reads %v, want the hole FillNil left", a)
	}
}

// Property: inode encode/decode is the identity for arbitrary field
// values.
func TestInodeRoundTripProperty(t *testing.T) {
	f := func(ino uint32, mode, nlink uint16, size uint64, mtime, ctime int64, seed int64) bool {
		in := Inode{
			Ino: Ino(ino), Mode: FileMode(mode), Nlink: nlink,
			Size: size, Mtime: mtime, Ctime: ctime,
		}
		rng := rand.New(rand.NewSource(seed))
		for i := range in.Direct {
			in.Direct[i] = DiskAddr(rng.Uint32())
		}
		in.Indirect = DiskAddr(rng.Uint32())
		in.DoubleIndirect = DiskAddr(rng.Uint32())
		buf := make([]byte, InodeSize)
		in.Encode(buf)
		got, err := DecodeInode(buf)
		return err == nil && reflect.DeepEqual(got, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapBlockDirect(t *testing.T) {
	for lbn := int64(0); lbn < NDirect; lbn++ {
		p, err := MapBlock(lbn, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if p.Level != 0 || p.Direct != int(lbn) {
			t.Fatalf("MapBlock(%d) = %+v", lbn, p)
		}
	}
}

func TestMapBlockSingleIndirect(t *testing.T) {
	apb := AddrsPerBlock(4096)
	p, err := MapBlock(NDirect, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.Level != 1 || p.Inner != 0 {
		t.Fatalf("first indirect block = %+v", p)
	}
	p, err = MapBlock(NDirect+int64(apb)-1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.Level != 1 || p.Inner != apb-1 {
		t.Fatalf("last single-indirect block = %+v", p)
	}
}

func TestMapBlockDoubleIndirect(t *testing.T) {
	apb := int64(AddrsPerBlock(4096))
	first := int64(NDirect) + apb
	p, err := MapBlock(first, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.Level != 2 || p.Outer != 0 || p.Inner != 0 {
		t.Fatalf("first double-indirect block = %+v", p)
	}
	p, err = MapBlock(first+apb+3, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.Level != 2 || p.Outer != 1 || p.Inner != 3 {
		t.Fatalf("double-indirect (1,3) = %+v", p)
	}
}

func TestMapBlockLimits(t *testing.T) {
	if _, err := MapBlock(-1, 4096); err == nil {
		t.Fatal("negative lbn accepted")
	}
	max := MaxFileBlocks(4096)
	if _, err := MapBlock(max-1, 4096); err != nil {
		t.Fatalf("last addressable block rejected: %v", err)
	}
	if _, err := MapBlock(max, 4096); err == nil {
		t.Fatal("block beyond double-indirect reach accepted")
	}
}

func TestBlocksForSize(t *testing.T) {
	cases := []struct {
		size uint64
		want int64
	}{{0, 0}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}}
	for _, c := range cases {
		if got := BlocksForSize(c.size, 4096); got != c.want {
			t.Errorf("BlocksForSize(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

// Property: MapBlock is injective — distinct lbns map to distinct
// paths (within the addressable range).
func TestMapBlockInjectiveProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		la, lb := int64(a), int64(b)
		pa, errA := MapBlock(la, 512)
		pb, errB := MapBlock(lb, 512)
		if errA != nil || errB != nil {
			return true // out of range for tiny blocks; not this property's concern
		}
		if la == lb {
			return pa == pb
		}
		return pa != pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
