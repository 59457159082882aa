package fstest

import (
	"testing"

	"lfs/internal/vfs"
)

// RunSteadyStateAllocs pins what the data path costs the host once a
// volume is warm: an 8 KB Write over, and an 8 KB Read of, an existing
// file allocate nothing per call — no split path, no inode, no block
// header — whatever write-back the calls trigger on the way; nor does
// truncating the 256 KB file to 1 KB, which drops its indirect block,
// and writing it back. It leaves a file behind in fs.
func RunSteadyStateAllocs(t *testing.T, fs vfs.FileSystem) {
	t.Helper()
	const chunk, chunks = 8 << 10, 32
	must(t, fs.Mkdir("/steady"))
	must(t, fs.Create("/steady/file"))
	buf := make([]byte, chunk)
	i := 0
	write := func() {
		buf[0] = byte(i)
		must(t, fs.Write("/steady/file", int64(i%chunks)*chunk, buf))
		i++
	}
	read := func() {
		_, err := fs.Read("/steady/file", int64(i%chunks)*chunk, buf)
		must(t, err)
		i++
	}
	for range 4 * chunks {
		write()
	}
	must(t, fs.Sync())
	for range chunks {
		read()
	}
	if n := testing.AllocsPerRun(20*chunks, write); n != 0 {
		t.Errorf("8 KB Write of an existing file: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20*chunks, read); n != 0 {
		t.Errorf("8 KB Read of an existing file: %v allocs per call, want 0", n)
	}
	regrow := func() {
		must(t, fs.Truncate("/steady/file", 1<<10))
		for range chunks {
			write()
		}
	}
	if n := testing.AllocsPerRun(20, regrow); n != 0 {
		t.Errorf("Truncate of the 256 KB file to 1 KB and its regrowth: %v allocs per call, want 0", n)
	}
}
