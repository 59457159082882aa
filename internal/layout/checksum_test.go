package layout

// The regression behind DataChecksum's existence: a CRC is affine, so
// crc(m ‖ crc(m)) is a constant independent of m (the residue
// property). Inode records end in their own IEEE CRC32, so an IEEE
// checksum over a block of such records depends only on which slots
// are occupied — never on what the records say. A log-unit DataCRC
// computed with the same polynomial therefore cannot distinguish a
// torn segment write (fresh summary over a stale inode block) from an
// intact one. DataChecksum uses a different polynomial (Castagnoli)
// so the embedded CRCs are ordinary content bytes.

import "testing"

// inodeBlock returns a 4 KB block holding one self-checksummed inode
// record with the given distinguishing content and zeros elsewhere.
func inodeBlock(gen uint32, size uint64, first DiskAddr) []byte {
	in := NewInode(7, ModeFile|0o644)
	in.Gen = gen
	in.Size = size
	in.Direct[0] = first
	blk := make([]byte, 4096)
	in.Encode(blk[:InodeSize])
	return blk
}

func TestDataChecksumBreaksInodeResidue(t *testing.T) {
	a := inodeBlock(1, 100, 1000)
	b := inodeBlock(2, 200, 2000)

	// Demonstrate the trap first: the whole-block IEEE checksums of
	// two different valid records collide. If this ever stops
	// holding, the residue rationale (and this test) need revisiting
	// — it would mean the record format no longer ends in a plain
	// IEEE CRC.
	if Checksum(a) == Checksum(b) {
		if DataChecksum(a) == DataChecksum(b) {
			t.Fatal("DataChecksum collides on blocks with different inode records; " +
				"a torn inode-block write would verify as intact")
		}
	} else {
		t.Fatal("IEEE checksums of self-CRC'd records no longer collide; " +
			"inode records seem to no longer end in an IEEE CRC — update the DataChecksum rationale")
	}

	// The embedded per-record CRC must still round-trip.
	if _, err := DecodeInode(a[:InodeSize]); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
}

// Continuing a payload's checksum over its second half equals the
// checksum of the whole payload, so a log unit that grows in place keeps
// the DataCRC a reader computes over all of it.
func TestContinueDataChecksum(t *testing.T) {
	whole := append(inodeBlock(1, 100, 1000), inodeBlock(2, 200, 2000)...)
	for _, cut := range []int{0, 1, 4096, len(whole)} {
		if got, want := ContinueDataChecksum(DataChecksum(whole[:cut]), whole[cut:]), DataChecksum(whole); got != want {
			t.Errorf("cut at %d: continued checksum %#x, whole %#x", cut, got, want)
		}
	}
}
