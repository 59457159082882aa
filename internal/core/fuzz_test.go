package core

import (
	"testing"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

// The on-disk decoders parse raw bytes from (possibly corrupted or
// torn) disk images; none of them may panic or over-read, whatever
// the input. Each fuzz target seeds with a valid encoding plus
// mutations; without -fuzz these run as ordinary regression tests
// over the seed corpus.

func FuzzDecodeSummary(f *testing.F) {
	refs := []blockRef{
		{Kind: kindData, Ino: 7, ID: 3, Version: 1},
		{Kind: kindInodes},
	}
	h := summaryHeader{Serial: 5, NBlocks: 2, SumBlocks: 1, Timestamp: sim.Time(9)}
	valid := make([]byte, 4096)
	encodeSummary(h, refs, valid)
	f.Add(valid)
	f.Add(make([]byte, 4096))
	f.Add([]byte{0x4D, 0x55, 0x53, 0x4C})
	truncated := make([]byte, 70)
	copy(truncated, valid)
	f.Add(truncated)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, refs, err := decodeSummary(data, nil)
		if err == nil {
			if h.NBlocks != len(refs) {
				t.Fatalf("accepted summary with %d blocks but %d refs", h.NBlocks, len(refs))
			}
		}
	})
}

func FuzzDecodeCheckpoint(f *testing.F) {
	st := checkpointState{
		Serial: 3, Timestamp: 11, HeadSeg: 1, HeadBlk: 2, WriteSerial: 9,
		ImapAddrs: []layout.DiskAddr{1, 2},
		Usage:     []segUsage{{Live: 5}, {State: segDirty}},
	}
	valid := make([]byte, 1024)
	encodeCheckpoint(st, valid)
	f.Add(valid)
	f.Add(make([]byte, 1024))
	f.Add(valid[:ckptHeaderSize-1]) // truncated mid-header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeCheckpoint(data)
		if err == nil {
			// Accepted checkpoints must have internally consistent
			// lengths.
			need := ckptHeaderSize + len(st.ImapAddrs)*layout.AddrSize + len(st.Usage)*segUsageEntrySize + 4
			if need > len(data) {
				t.Fatalf("accepted checkpoint larger than its buffer")
			}
		}
	})
}

func FuzzDecodeSuperblockLFS(f *testing.F) {
	sb := superblock{BlockSize: 4096, SegmentSize: 1 << 20, MaxInodes: 1024, Segments: 8, CkptBytes: 1024, Ckpt0Sector: 8, Ckpt1Sector: 10, SegStart: 16}
	valid := make([]byte, 4096)
	sb.encode(valid)
	f.Add(valid)
	f.Add(make([]byte, 4096))
	f.Add(valid[:63]) // truncated mid-header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeSuperblock(data)
	})
}

func FuzzDecodeImapEntry(f *testing.F) {
	e := imapEntry{Addr: 99, Slot: 2, Allocated: true, Version: 7, Atime: 123}
	buf := make([]byte, imapEntrySize)
	e.encode(buf)
	f.Add(buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < imapEntrySize {
			return
		}
		_ = decodeImapEntry(data)
	})
}
