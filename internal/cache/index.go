package cache

import "math/bits"

// index maps keys to cached blocks without Go's map: every block crosses
// the cache two or three times, each crossing is a lookup, and the
// runtime's hash of the padded 16-byte key was the larger part of one.
// It is an open-addressed table — a power-of-two slice of block
// pointers, linear probing from a multiplicative hash of the key — that
// adds nothing to the Block header and keeps three invariants:
//
//   - at most half the slots are in use (put doubles the table first),
//     so probe runs stay short and every probe ends at an empty slot;
//   - no empty slot lies between a block and its home slot: del closes
//     the gap it opens by shifting the rest of the run back, so there
//     are no tombstones and a lookup stops at the first empty slot;
//   - the layout is a function of the keys put and deleted, in order —
//     no seed, no iteration order — so two runs build the same table.
type index struct {
	slots []*Block
	n     int
	shift uint // 64 - log2(len(slots))
}

// newIndex returns a table that holds capacity blocks without growing.
func newIndex(capacity int) index {
	size := 2
	for size < 2*capacity {
		size *= 2
	}
	return index{slots: make([]*Block, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// home is the slot a key's probe run starts at: the top bits of a
// Fibonacci hash, which spreads the runs of consecutive offsets (one
// file) and consecutive inode numbers (one directory's files) the
// workloads produce.
func (x *index) home(k Key) int {
	h := uint64(k.Ino)*0xD6E8FEB86659FD93 + uint64(k.Off) + uint64(k.Kind)<<56
	return int(h * 0x9E3779B97F4A7C15 >> x.shift)
}

// get returns the block for k, or nil.
func (x *index) get(k Key) *Block {
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		if b := x.slots[i]; b == nil || b.Key == k {
			return b
		}
	}
}

// put adds b, whose key must not be present.
func (x *index) put(b *Block) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots, x.n, x.shift = make([]*Block, 2*len(old)), 0, x.shift-1
		for _, o := range old {
			if o != nil {
				x.put(o)
			}
		}
	}
	mask := len(x.slots) - 1
	i := x.home(b.Key)
	for x.slots[i] != nil {
		i = (i + 1) & mask
	}
	x.slots[i] = b
	x.n++
}

// del removes b, which must be present.
func (x *index) del(b *Block) {
	mask := len(x.slots) - 1
	i := x.home(b.Key)
	for x.slots[i] != b {
		if x.slots[i] == nil {
			panic("cache: index lost " + b.Key.String())
		}
		i = (i + 1) & mask
	}
	// Shift back every later block of the run that the gap at i would
	// otherwise cut off from its home slot: one whose home is not in
	// (i, j], measured cyclically.
	for j := (i + 1) & mask; x.slots[j] != nil; j = (j + 1) & mask {
		if h := x.home(x.slots[j].Key); (j-h)&mask >= (j-i)&mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i] = nil
	x.n--
}
