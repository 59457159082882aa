package disk

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

// awaitSent waits until n helpers' sends sit in the hand-over channel.
// It reads the channel's length and yields: a receive would take a
// chunk away from the store under test, and would be a channel
// operation of the tests' own for nogoroutine to excuse. A helper that
// can never send hangs the test into its -timeout. The send is the last
// thing a helper does, so once it is in the buffer that goroutine cannot
// be blocked anywhere.
func awaitSent(c chan []byte, n int) {
	for len(c) < n {
		runtime.Gosched()
	}
}

func TestMemStoreReadsZeroWhenUnwritten(t *testing.T) {
	s := NewMemStore(1 << 22)
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := s.ReadAt(buf, 12345*1); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore(1 << 22)
	want := bytes.Repeat([]byte{0xAB, 0xCD}, 4096)
	// Straddle a chunk boundary on purpose.
	off := int64(memChunkSize - 1000)
	if err := s.WriteAt(want, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := s.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch across chunk boundary")
	}
}

// installedBytes is the chunk memory m's image holds: installed chunks
// only, not those a helper is still readying.
func installedBytes(m *MemStore) int64 {
	var n int64
	for _, chunk := range m.chunks {
		if chunk != nil {
			n += memChunkSize
		}
	}
	return n
}

func TestMemStoreLazyAllocation(t *testing.T) {
	s := NewMemStore(1 << 30) // 1 GB capacity
	if installedBytes(s) != 0 {
		t.Fatalf("fresh store allocated %d bytes", installedBytes(s))
	}
	sector := make([]byte, 512)
	if err := s.WriteAt(sector, 0); err != nil {
		t.Fatal(err)
	}
	if installedBytes(s) != memChunkSize {
		t.Fatalf("one-sector write allocated %d bytes, want one chunk (%d)", installedBytes(s), memChunkSize)
	}
	if s.inFlight != 0 {
		t.Fatal("an isolated first touch started a look-ahead")
	}
	// A chunk in flight is not part of the image: only installed chunks
	// count, while the look-ahead is being readied, once it waits in
	// the channel, and after first touches far away took it.
	if err := s.WriteAt(sector, memChunkSize); err != nil {
		t.Fatal(err)
	}
	if s.inFlight != lookAhead {
		t.Fatalf("sequential growth put %d chunks in flight, want %d", s.inFlight, lookAhead)
	}
	allocated := func(when string, chunks int64) {
		t.Helper()
		if got := installedBytes(s); got != chunks*memChunkSize {
			t.Fatalf("look-ahead %s: %d bytes allocated, want %d chunks", when, got, chunks)
		}
	}
	allocated("in flight", 2)
	awaitSent(s.next, lookAhead)
	allocated("readied", 2)
	// Isolated first touches use the readied chunks up and start
	// nothing; the one after the last allocates inline again.
	for i := 1; i <= lookAhead+1; i++ {
		if err := s.WriteAt(sector, int64(2*i+1)*memChunkSize); err != nil {
			t.Fatal(err)
		}
		left := max(lookAhead-i, 0)
		if len(s.next) != left || s.inFlight != left {
			t.Fatalf("isolated first touch %d: %d chunks readied, %d in flight, want %d", i, len(s.next), s.inFlight, left)
		}
		allocated("consumed", int64(2+i))
	}
}

// Look-aheads outstanding when their store is closed, or just dropped,
// strand nobody: every helper's send completes with no receiver, and
// every helper exits.
func TestMemStoreLookAheadOutlivesStore(t *testing.T) {
	for _, end := range []string{"closed", "dropped"} {
		before := runtime.NumGoroutine()
		s := NewMemStore(4 * memChunkSize)
		if err := s.WriteAt(make([]byte, 2*memChunkSize), 0); err != nil {
			t.Fatal(err)
		}
		ahead := s.next
		if s.inFlight != lookAhead || cap(ahead) != lookAhead {
			t.Fatalf("%s: %d in flight on a channel of capacity %d, want %d on %d", end, s.inFlight, cap(ahead), lookAhead, lookAhead)
		}
		if end == "closed" {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s.next != nil || s.inFlight != 0 || installedBytes(s) != 0 {
				t.Fatal("Close kept the look-ahead or the chunks")
			}
		}
		s = nil
		runtime.GC()
		awaitSent(ahead, lookAhead)
		for runtime.NumGoroutine() > before { // a helper's last instruction is not its send
			runtime.Gosched()
		}
	}
}

// Sync returns only once every helper in flight has sent, and drops
// the readied chunks: the next first touch allocates inline.
func TestMemStoreSyncWaitsForLookAhead(t *testing.T) {
	s := NewMemStore(8 * memChunkSize)
	if err := s.WriteAt(make([]byte, 2*memChunkSize), 0); err != nil {
		t.Fatal(err)
	}
	ahead := s.next
	if s.inFlight != lookAhead {
		t.Fatalf("sequential growth put %d chunks in flight, want %d", s.inFlight, lookAhead)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.inFlight != 0 || len(ahead) != 0 {
		t.Fatalf("after Sync: %d in flight, %d readied, want none", s.inFlight, len(ahead))
	}
	if err := s.WriteAt(make([]byte, SectorSize), 3*memChunkSize); err != nil {
		t.Fatal(err)
	}
	if s.inFlight != 0 || installedBytes(s) != 3*memChunkSize {
		t.Fatalf("isolated first touch after Sync: %d in flight, %d bytes installed", s.inFlight, installedBytes(s))
	}
}

// A handed-over chunk reads back as zeros outside the written range,
// also when the heap is full of freed, dirtied 1 MB buffers for make to
// hand back: the helper's page touch writes 0 and the chunk is never
// one the store has used.
func TestMemStoreHandOverIsZeroed(t *testing.T) {
	dirty := make([][]byte, 8)
	for i := range dirty {
		dirty[i] = bytes.Repeat([]byte{0xFF}, memChunkSize)
	}
	runtime.GC() // dirty is dead: its spans go back to the heap unzeroed
	s := NewMemStore(8 * memChunkSize)
	want := bytes.Repeat([]byte{0xA5}, 3000)
	got := make([]byte, memChunkSize)
	for ci := int64(0); ci < 8; ci++ {
		handedOver := s.inFlight > 0
		if handedOver != (ci >= 2) {
			t.Fatalf("chunk %d: %d look-aheads outstanding", ci, s.inFlight)
		}
		if err := s.WriteAt(want, ci*memChunkSize+5000); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadAt(got, ci*memChunkSize); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[5000:8000], want) {
			t.Fatalf("chunk %d: written range did not read back", ci)
		}
		if !allZero(got[:5000]) || !allZero(got[8000:]) {
			t.Fatalf("chunk %d (handed over: %v): non-zero byte outside the written range", ci, handedOver)
		}
	}
}

func allZero(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }

func TestMemStoreBounds(t *testing.T) {
	s := NewMemStore(4096)
	if err := s.WriteAt(make([]byte, 512), 4096-256); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if err := s.ReadAt(make([]byte, 512), -1); err == nil {
		t.Fatal("negative-offset read succeeded")
	}
}

func TestMemStoreClosed(t *testing.T) {
	s := NewMemStore(4096)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(make([]byte, 512), 0); err == nil {
		t.Fatal("read after Close succeeded")
	}
}

func TestMemStoreInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size store did not panic")
		}
	}()
	NewMemStore(0)
}

// Property: for any set of writes, reading back each write's range
// returns the last data written there. We model the store against a
// plain byte slice.
func TestMemStoreMatchesFlatArrayProperty(t *testing.T) {
	const size = 1 << 21 // two chunks
	type op struct {
		Off  uint32
		Data []byte
	}
	f := func(ops []op) bool {
		s := NewMemStore(size)
		model := make([]byte, size)
		for _, o := range ops {
			off := int64(o.Off) % (size - 1)
			data := o.Data
			if int64(len(data)) > size-off {
				data = data[:size-off]
			}
			if len(data) == 0 {
				continue
			}
			if err := s.WriteAt(data, off); err != nil {
				return false
			}
			copy(model[off:], data)
		}
		got := make([]byte, size)
		if err := s.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}

	// The same property where first touch is handed over between
	// goroutines: 64 chunks first-touched in every order the
	// look-ahead rule tells apart, by short writes that now and then
	// run over into the next chunk. After every step the chunks just
	// written and one other, often still untouched (a read takes no
	// look-ahead and installs nothing), equal the flat array and only
	// touched chunks are charged; after every order the whole image
	// does. (The whole image after every step took 25 s under -race,
	// where reading a megabyte that changed goroutines costs 4 ms.)
	const chunks = 64
	perm := rand.New(rand.NewSource(7)).Perm(chunks)
	got := make([]byte, memChunkSize)
	data := make([]byte, 8192)
	ascending := func(i int) int { return i }
	for _, order := range []struct {
		name  string
		at    func(i int) int
		procs int // GOMAXPROCS for the subtest; 0 leaves it alone
	}{
		{"ascending", ascending, 0},
		{"descending", func(i int) int { return chunks - 1 - i }, 0},
		{"strided", func(i int) int { return i * 5 % chunks }, 0}, // 0 5 … 60 1 6 …: every chunk once
		{"random", func(i int) int { return perm[i] }, 0},
		// One processor: no helper runs until the caller parks on the
		// receive, and then all three are runnable at once.
		{"ascending-GOMAXPROCS1", ascending, 1},
	} {
		t.Run(order.name, func(t *testing.T) {
			if order.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(order.procs))
			}
			s := NewMemStore(chunks * memChunkSize)
			model := make([]byte, s.Size())
			same := func(step int, ci int64) {
				t.Helper()
				if err := s.ReadAt(got, ci*memChunkSize); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, model[ci*memChunkSize:(ci+1)*memChunkSize]) {
					t.Fatalf("step %d: chunk %d differs from the flat array", step, ci)
				}
			}
			touched := make(map[int64]bool)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < chunks; i++ {
				rng.Read(data)
				// Offsets anywhere in the chunk: about one 8 KB
				// write in 128 straddles into the next chunk.
				off := int64(order.at(i))*memChunkSize + rng.Int63n(memChunkSize)
				n := min(int64(len(data)), s.Size()-off)
				if err := s.WriteAt(data[:n], off); err != nil {
					t.Fatal(err)
				}
				copy(model[off:], data[:n])
				first, last := off/memChunkSize, (off+n-1)/memChunkSize
				touched[first], touched[last] = true, true
				same(i, first)
				if last != first {
					same(i, last)
				}
				same(i, int64(order.at((i+1+rng.Intn(chunks-1))%chunks))) // any chunk but this step's
				if want := int64(len(touched)) * memChunkSize; installedBytes(s) != want {
					t.Fatalf("step %d: %d bytes allocated, want %d", i, installedBytes(s), want)
				}
			}
			for ci := int64(0); ci < chunks; ci++ {
				same(chunks, ci)
			}
		})
	}
}

// BenchmarkMemStoreFirstTouch is the store layer's cold-start cost:
// one sequential pass of 1 MB writes over a fresh 256 MB store, every
// chunk a first touch, the heap returned to the system before each
// pass as lfsperf does before each repetition. Run it at -cpu 1,2: the
// look-ahead has a second processor to use only at 2. (lfsperf's
// store.mem.mb_per_s kernel rewrites the same 16 MB, so it never
// first-touches.)
func BenchmarkMemStoreFirstTouch(b *testing.B) {
	const size = 256 << 20
	seg := bytes.Repeat([]byte{0x5A}, memChunkSize)
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		debug.FreeOSMemory()
		s := NewMemStore(size)
		b.StartTimer()
		for off := int64(0); off < size; off += memChunkSize {
			if err := s.WriteAt(seg, off); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	s, err := OpenFileStore(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 1024)
	if err := s.WriteAt(want, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := make([]byte, 1024)
	if err := s2.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data did not persist across reopen")
	}
	if s2.Size() != 1<<20 {
		t.Fatalf("Size = %d", s2.Size())
	}
}

func TestFileStoreBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "img")
	s, err := OpenFileStore(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteAt(make([]byte, 8192), 0); err == nil {
		t.Fatal("oversized write succeeded")
	}
	if err := s.ReadAt(make([]byte, 512), 4096); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}

func TestFileStoreInvalidSize(t *testing.T) {
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "img"), 0); err == nil {
		t.Fatal("zero-size FileStore succeeded")
	}
}

// TestCowStoreSnapshotSharing pins the O(1)-ness the crash sweep
// depends on: a snapshot shares chunk storage with the live image
// until a write diverges them.
func TestCowStoreSnapshotSharing(t *testing.T) {
	s := NewCowMemStore(1 << 22)
	defer s.Close()
	p := bytes.Repeat([]byte{7}, 1<<16+1<<10) // two chunks
	if err := s.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sn := snap.(*memSnapshot)
	if len(s.chunks) != 2 || len(sn.chunks) != 2 || s.chunks[0] != sn.chunks[0] || s.chunks[1] != sn.chunks[1] {
		t.Fatalf("live image holds %d chunks, snapshot %d; snapshots must share them", len(s.chunks), len(sn.chunks))
	}
	// Overwrite one sector: exactly that chunk is cloned, and the
	// snapshot still restores the original bytes.
	if err := s.WriteAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	if len(s.chunks) != 2 || s.chunks[0] == sn.chunks[0] || s.chunks[1] != sn.chunks[1] {
		t.Fatal("a one-sector write did not clone exactly its own chunk")
	}
	if err := sn.Restore(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p[:512]) {
		t.Fatal("restore did not bring back the pre-snapshot bytes")
	}
	if err := sn.Release(); err != nil {
		t.Fatal(err)
	}
}
