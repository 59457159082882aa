package layout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The reference codec: how Find, Insert and Remove worked before they
// walked the block in place — decode every entry, mutate the slice,
// re-encode the whole block. It lives only here, as the oracle the
// in-place functions are compared against byte for byte.

func refEncode(entries []DirEntry, p []byte) {
	InitDirBlock(p)
	binary.LittleEndian.PutUint16(p, uint16(len(entries)))
	off := dirHeaderSize
	for _, e := range entries {
		binary.LittleEndian.PutUint32(p[off:], uint32(e.Ino))
		binary.LittleEndian.PutUint16(p[off+4:], uint16(len(e.Name)))
		off += 6
		off += copy(p[off:], e.Name)
	}
}

func refInsert(p []byte, e DirEntry) (bool, error) {
	if err := ValidName(e.Name); err != nil {
		return false, err
	}
	entries, err := DirBlockEntries(p)
	if err != nil {
		return false, err
	}
	used := dirHeaderSize
	for _, x := range entries {
		if x.Name == e.Name {
			return false, fmt.Errorf("layout: duplicate directory entry %q", e.Name)
		}
		used += DirEntrySize(x.Name)
	}
	if used+DirEntrySize(e.Name) > len(p) {
		return false, nil
	}
	refEncode(append(entries, e), p)
	return true, nil
}

func refRemove(p []byte, name string) (bool, error) {
	entries, err := DirBlockEntries(p)
	if err != nil {
		return false, err
	}
	for i, e := range entries {
		if e.Name == name {
			refEncode(append(entries[:i], entries[i+1:]...), p)
			return true, nil
		}
	}
	return false, nil
}

func refFind(p []byte, name string) (Ino, bool, error) {
	entries, err := DirBlockEntries(p)
	if err != nil {
		return 0, false, err
	}
	for _, e := range entries {
		if e.Name == name {
			return e.Ino, true, nil
		}
	}
	return 0, false, nil
}

// opName maps an op byte to a name: mostly a small pool of valid names
// of several lengths, so sequences collide, plus the names ValidName
// rejects and the longest one it accepts.
func opName(id byte) string {
	switch id {
	case 255:
		return ""
	case 254:
		return "a/b"
	case 253:
		return strings.Repeat("x", MaxNameLen+1)
	case 252:
		return strings.Repeat("y", MaxNameLen)
	case 251:
		return "nul\x00"
	}
	return strings.Repeat("n", int(id%7)) + strconv.Itoa(int(id%32))
}

// refEnd is where the block's entries end, by the reference's decoding.
func refEnd(p []byte) (int, error) {
	entries, err := DirBlockEntries(p)
	end := dirHeaderSize
	for _, e := range entries {
		end += DirEntrySize(e.Name)
	}
	return end, err
}

// runDirOps drives ops — three bytes each: kind, name, inode number —
// through the in-place codec on one copy of block and through the
// reference on another, and fails on the first difference in result,
// error text or block bytes (the zeroed tail included). Kinds 3 and 4
// are the validated pair as vfs.Dirs drives it: they carry the end the
// last of them returned (0 at first, and again after a full insert or
// remove, as Dirs forgets it), which must be where the reference block's
// entries end, and an append is of a name the block does not hold —
// what the caller vouches.
func runDirOps(t *testing.T, block, ops []byte) {
	t.Helper()
	got := append([]byte(nil), block...)
	want := append([]byte(nil), block...)
	end := 0
	for i := 0; i+2 < len(ops); i += 3 {
		name := opName(ops[i+1])
		e := DirEntry{Ino: Ino(ops[i+2]) + 1, Name: name}
		var gotRes, wantRes string
		switch ops[i] % 5 {
		case 0:
			ok, err := DirBlockInsert(got, e)
			gotRes = fmt.Sprint("insert ", ok, err)
			ok, err = refInsert(want, e)
			wantRes = fmt.Sprint("insert ", ok, err)
			end = 0
		case 1:
			ok, err := DirBlockRemove(got, name)
			gotRes = fmt.Sprint("remove ", ok, err)
			ok, err = refRemove(want, name)
			wantRes = fmt.Sprint("remove ", ok, err)
			end = 0
		case 2:
			ino, ok, err := DirBlockFind(got, name)
			gotRes = fmt.Sprint("find ", ino, ok, err)
			ino, ok, err = refFind(want, name)
			wantRes = fmt.Sprint("find ", ino, ok, err)
		case 3:
			if _, found, _ := refFind(want, name); found {
				continue
			}
			var ok bool
			var err error
			end, ok, err = DirBlockAppendAt(got, end, e)
			gotRes = fmt.Sprint("insert ", ok, err)
			ok, err = refInsert(want, e)
			wantRes = fmt.Sprint("insert ", ok, err)
		case 4:
			var ok bool
			var err error
			end, ok, err = DirBlockRemoveAt(got, end, name)
			gotRes = fmt.Sprint("remove ", ok, err)
			ok, err = refRemove(want, name)
			wantRes = fmt.Sprint("remove ", ok, err)
		}
		if gotRes != wantRes {
			t.Fatalf("op %d on %q: in place %q, reference %q", i/3, name, gotRes, wantRes)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d (%s) on %q: blocks differ\nin place  %x\nreference %x", i/3, gotRes, name, got, want)
		}
		if end == 0 {
			continue
		}
		if wantEnd, err := refEnd(want); end != wantEnd || err != nil {
			t.Fatalf("op %d (%s) on %q: recorded end %d, entries end at %d (%v)", i/3, gotRes, name, end, wantEnd, err)
		}
	}
}

// dirOpsSeeds are starting blocks worth comparing on: empty, populated,
// populated with a dirty tail, holding a duplicate name, corrupt in
// each way dirEntryAt rejects, and full of short or of 255-byte names.
func dirOpsSeeds() [][]byte {
	short, _ := fullDirBlock(4096, shortName)
	long, _ := fullDirBlock(4096, longName)
	populated := freshDirBlock(256)
	refEncode([]DirEntry{{2, "n1"}, {3, "nn2"}, {4, "nnn3"}, {5, "4"}}, populated)
	dirtyTail := append([]byte(nil), populated...)
	for i := 200; i < len(dirtyTail); i++ {
		dirtyTail[i] = 0xA5
	}
	dup := freshDirBlock(256)
	refEncode([]DirEntry{{2, "n1"}, {3, "5"}, {4, "n1"}}, dup)
	overCount := append([]byte(nil), populated...)
	overCount[0] = 200
	zeroLen := append([]byte(nil), populated...)
	binary.LittleEndian.PutUint16(zeroLen[dirHeaderSize+4:], 0)
	longLen := append([]byte(nil), populated...)
	binary.LittleEndian.PutUint16(longLen[dirHeaderSize+4:], MaxNameLen+1)
	badLater := append([]byte(nil), populated...)
	binary.LittleEndian.PutUint16(badLater[dirHeaderSize+8+4:], 0) // second entry, after a valid "n1"
	return [][]byte{
		freshDirBlock(64), freshDirBlock(4096), populated, dirtyTail, dup,
		overCount, zeroLen, longLen, badLater, populated[:20], {0xFF, 0xFF}, {7}, {},
		short, long,
	}
}

// TestDirBlockInPlaceMatchesReference is the differential property
// test: random op sequences from every seed block.
func TestDirBlockInPlaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1990))
	for _, seed := range dirOpsSeeds() {
		for round := 0; round < 40; round++ {
			ops := make([]byte, 3*(1+rng.Intn(200)))
			rng.Read(ops)
			runDirOps(t, seed, ops)
		}
	}
	// Random bytes as the block: almost always corrupt, and both sides
	// must say so identically and leave it untouched.
	for round := 0; round < 200; round++ {
		block := make([]byte, rng.Intn(128))
		rng.Read(block)
		if len(block) >= 2 {
			block[0], block[1] = byte(rng.Intn(6)), 0
		}
		ops := make([]byte, 60)
		rng.Read(ops)
		runDirOps(t, block, ops)
	}
}

// TestDirBlockValidatedPairAtEveryPosition: in full blocks of short and
// of 255-byte names, each entry in turn is removed through
// DirBlockRemoveAt — from an unknown end and from the recorded one — and
// appended back at the end that returns, then a name too long for what
// is left is refused. Results, ends and bytes must be the reference's.
func TestDirBlockValidatedPairAtEveryPosition(t *testing.T) {
	for _, name := range []func(int) string{shortName, longName} {
		full, names := fullDirBlock(4096, name)
		fullEnd, _ := refEnd(full)
		for i, victim := range names {
			for _, end := range []int{0, fullEnd} {
				got, want := slices.Clone(full), slices.Clone(full)
				check := func(step string, gotEnd int, gotOK bool, gotErr error, wantOK bool, wantErr error) {
					t.Helper()
					wantEnd, _ := refEnd(want)
					if gotOK != wantOK || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotEnd != wantEnd || !bytes.Equal(got, want) {
						t.Fatalf("entry %d of %d from end %d, %s: in place %v %v end %d, reference %v %v end %d, same bytes %v",
							i, len(names), end, step, gotOK, gotErr, gotEnd, wantOK, wantErr, wantEnd, bytes.Equal(got, want))
					}
				}
				n, ok, err := DirBlockRemoveAt(got, end, victim)
				wantOK, wantErr := refRemove(want, victim)
				check("remove", n, ok, err, wantOK, wantErr)
				for _, e := range []DirEntry{{Ino: 9, Name: victim}, {Ino: 10, Name: longName(999)}} {
					n, ok, err = DirBlockAppendAt(got, n, e)
					wantOK, wantErr = refInsert(want, e)
					check("append "+e.Name[:3], n, ok, err, wantOK, wantErr)
				}
			}
		}
	}
}

func FuzzDirBlockOps(f *testing.F) {
	ops := []byte{0, 1, 9, 0, 1, 9, 2, 1, 0, 0, 252, 3, 0, 255, 3, 1, 1, 0, 2, 1, 0, 1, 40, 0, 0, 2, 7,
		4, 1, 0, 3, 1, 5, 3, 2, 6, 4, 40, 0, 3, 252, 4, 4, 252, 0, 3, 255, 1}
	for _, seed := range dirOpsSeeds() {
		f.Add(seed, ops)
	}
	f.Fuzz(func(t *testing.T, block, ops []byte) {
		runDirOps(t, block, ops)
	})
}

// shortName is the small-file benchmark's i-th name, longName the i-th
// of the longest names allowed.
func shortName(i int) string { return fmt.Sprintf("f%06d", i) }
func longName(i int) string  { return fmt.Sprintf("%03d", i) + strings.Repeat("y", MaxNameLen-3) }

// fullDirBlock fills a block of the given size with name(0), name(1), …
// until the next does not fit, and returns it with the names it holds.
func fullDirBlock(size int, name func(int) string) ([]byte, []string) {
	p := freshDirBlock(size)
	var names []string
	for i := 0; ; i++ {
		if ok, err := DirBlockInsert(p, DirEntry{Ino: Ino(i + 2), Name: name(i)}); err != nil || !ok {
			return p, names
		}
		names = append(names, name(i))
	}
}

func TestDirBlockOpsDoNotAllocate(t *testing.T) {
	full, names := fullDirBlock(4096, shortName)
	last := names[len(names)-1]
	scratch := make([]byte, len(full))
	for name, fn := range map[string]func(){
		"find hit":  func() { _, _, _ = DirBlockFind(full, last) },
		"find miss": func() { _, _, _ = DirBlockFind(full, "absent") },
		"insert full": func() {
			_, _ = DirBlockInsert(full, DirEntry{Ino: 7, Name: "absent-name"})
		},
		"remove then insert": func() {
			copy(scratch, full)
			if ok, err := DirBlockRemove(scratch, names[0]); !ok || err != nil {
				t.Fatal("remove failed:", ok, err)
			}
			if ok, err := DirBlockInsert(scratch, DirEntry{Ino: 7, Name: names[0]}); !ok || err != nil {
				t.Fatal("insert failed:", ok, err)
			}
		},
		"remove miss": func() { _, _ = DirBlockRemove(full, "absent") },
		"remove at, then append at the end": func() {
			copy(scratch, full)
			end, ok, err := DirBlockRemoveAt(scratch, 0, names[0])
			if !ok || err != nil {
				t.Fatal("remove failed:", ok, err)
			}
			if _, ok, err := DirBlockAppendAt(scratch, end, DirEntry{Ino: 7, Name: names[0]}); !ok || err != nil {
				t.Fatal("append failed:", ok, err)
			}
		},
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
}

var benchSink int

func BenchmarkDirBlockFind(b *testing.B) {
	full, names := fullDirBlock(4096, shortName)
	for _, c := range []struct{ name, target string }{
		{"hit_first", names[0]}, {"hit_last", names[len(names)-1]}, {"miss", "absent"},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ino, _, _ := DirBlockFind(full, c.target)
				benchSink += int(ino)
			}
		})
	}
}

func BenchmarkDirBlockInsert(b *testing.B) {
	full, names := fullDirBlock(4096, shortName)
	last := names[len(names)-1]
	room := append([]byte(nil), full...)
	if ok, err := DirBlockRemove(room, last); !ok || err != nil {
		b.Fatal(ok, err)
	}
	scratch := make([]byte, len(full))
	// hit: the block has room and the entry goes in (after a 4 KB copy
	// to restore the block); miss: the block is full.
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, room)
			if ok, _ := DirBlockInsert(scratch, DirEntry{Ino: 7, Name: last}); ok {
				benchSink++
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ok, _ := DirBlockInsert(full, DirEntry{Ino: 7, Name: "absent-name"}); ok {
				benchSink++
			}
		}
	})
	// append_at: hit's insert at the end vfs.Dirs recorded.
	end, _ := refEnd(room)
	b.Run("append_at", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, room)
			if _, ok, _ := DirBlockAppendAt(scratch, end, DirEntry{Ino: 7, Name: last}); ok {
				benchSink++
			}
		}
	})
}

func BenchmarkDirBlockRemove(b *testing.B) {
	full, names := fullDirBlock(4096, shortName)
	scratch := make([]byte, len(full))
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, full)
			if ok, _ := DirBlockRemove(scratch, names[0]); ok {
				benchSink++
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ok, _ := DirBlockRemove(full, "absent"); ok {
				benchSink++
			}
		}
	})
	// at: hit's removal from the end vfs.Dirs recorded, which walks no
	// further than the name.
	end, _ := refEnd(full)
	b.Run("at", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, full)
			if _, ok, _ := DirBlockRemoveAt(scratch, end, names[0]); ok {
				benchSink++
			}
		}
	})
}
