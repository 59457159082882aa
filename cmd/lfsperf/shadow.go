package main

import (
	"errors"
	"hash/crc32"

	"lfs/internal/vfs"
)

// shadow is the generator's own record of what the file system was
// told and what it acknowledged. Every write's checksum is kept per
// extent; a Sync (or FsyncFile) that returns nil moves the current
// state to the acknowledged state. After the power cut the recovered
// volume is held to exactly that contract: acknowledged data and
// acknowledged deletes must have survived, and anything newer may be
// there or not — but if it is there it must be something that was
// actually written, never garbage.
//
// The workloads write whole, aligned extents of one size per file
// (1 KB, 4 KB or 8 KB), so the record is a checksum per extent. A file
// touched in any other shape is marked opaque and not verified.
//
// All methods are no-ops on a nil shadow.
type shadow struct {
	files map[string]*shadowFile
	order []*shadowFile // creation order, for a deterministic verify pass
	dirty []*shadowFile // touched since the last whole-FS acknowledgement
	zero  map[int]uint32
}

type shadowFile struct {
	path   string
	opaque bool
	queued bool // on shadow.dirty

	exists, ackExists bool
	// nsDirty marks a create or remove not yet acknowledged: after a
	// crash the name may or may not be there.
	nsDirty bool

	extLen        int
	size, ackSize int64
	cur, acked    []uint32
	// pending lists the writes since the last acknowledgement; any of
	// them may be what recovery finds in that extent.
	pending []pendingWrite
}

type pendingWrite struct {
	ext int
	crc uint32
}

func newShadow() *shadow {
	return &shadow{files: make(map[string]*shadowFile, 1<<14), zero: make(map[int]uint32)}
}

// zeroCRC is the checksum of n zero bytes: what a hole reads as.
func (s *shadow) zeroCRC(n int) uint32 {
	c, ok := s.zero[n]
	if !ok {
		c = crc32.ChecksumIEEE(make([]byte, n))
		s.zero[n] = c
	}
	return c
}

func (s *shadow) touch(f *shadowFile) {
	if !f.queued {
		f.queued = true
		s.dirty = append(s.dirty, f)
	}
}

func (s *shadow) file(path string) *shadowFile {
	f := s.files[path]
	if f == nil {
		f = &shadowFile{path: path}
		s.files[path] = f
		s.order = append(s.order, f)
	}
	return f
}

func (s *shadow) create(path string) {
	if s == nil {
		return
	}
	f := s.file(path)
	f.exists, f.nsDirty = true, true
	f.size = 0
	f.cur = f.cur[:0]
	s.touch(f)
}

func (s *shadow) remove(path string) {
	if s == nil {
		return
	}
	f := s.file(path)
	f.exists, f.nsDirty = false, true
	f.size = 0
	f.cur = f.cur[:0]
	s.touch(f)
}

// forget stops verifying the named files: they were touched by an
// operation the shadow does not model (truncate, rename, link).
func (s *shadow) forget(paths ...string) {
	if s == nil {
		return
	}
	for _, p := range paths {
		s.file(p).opaque = true
	}
}

func (s *shadow) write(path string, off int64, data []byte) {
	if s == nil || len(data) == 0 {
		return
	}
	f := s.file(path)
	if f.extLen == 0 {
		f.extLen = len(data)
	}
	if len(data) != f.extLen || off%int64(f.extLen) != 0 {
		f.opaque = true
		return
	}
	ext := int(off / int64(f.extLen))
	for len(f.cur) <= ext {
		f.cur = append(f.cur, s.zeroCRC(f.extLen))
	}
	crc := crc32.ChecksumIEEE(data)
	f.cur[ext] = crc
	f.pending = append(f.pending, pendingWrite{ext, crc})
	if end := off + int64(len(data)); end > f.size {
		f.size = end
	}
	s.touch(f)
}

// checkRead reports whether data, just read back from path at off, is
// what the generator last wrote there.
func (s *shadow) checkRead(path string, off int64, data []byte) bool {
	if s == nil {
		return true
	}
	f := s.files[path]
	if f == nil || f.opaque || f.extLen == 0 {
		return true
	}
	if len(data) != f.extLen || off%int64(f.extLen) != 0 {
		return true
	}
	ext := int(off / int64(f.extLen))
	return ext < len(f.cur) && crc32.ChecksumIEEE(data) == f.cur[ext]
}

func (f *shadowFile) ack() {
	f.ackExists, f.nsDirty = f.exists, false
	f.ackSize = f.size
	if !f.exists {
		f.acked = f.acked[:0]
	} else {
		f.acked = append(f.acked[:0], f.cur...)
	}
	f.pending = f.pending[:0]
}

// ackFile records that path's state was acknowledged durable.
func (s *shadow) ackFile(path string) {
	if s == nil {
		return
	}
	if f := s.files[path]; f != nil {
		f.ack()
	}
}

// ackAll records that everything written so far was acknowledged
// durable.
func (s *shadow) ackAll() {
	if s == nil {
		return
	}
	for _, f := range s.dirty {
		f.ack()
		f.queued = false
	}
	s.dirty = s.dirty[:0]
}

// verify holds the recovered file system to the record. It returns
// the number of expectations checked and a description of each one
// violated.
func (s *shadow) verify(fs vfs.FileSystem) (checks int64, violations []string) {
	bad := func(f *shadowFile, what string) {
		violations = append(violations, f.path+": "+what)
	}
	var buf []byte
	for _, f := range s.order {
		if f.opaque {
			continue
		}
		checks++
		st, err := fs.Stat(f.path)
		switch {
		case err != nil && !errors.Is(err, vfs.ErrNotExist):
			bad(f, "stat: "+err.Error())
			continue
		case err != nil:
			if f.ackExists && !f.nsDirty {
				bad(f, "acknowledged file is gone")
			}
			continue
		case !f.ackExists && !f.nsDirty:
			bad(f, "file whose delete was acknowledged is back")
			continue
		}
		if !f.exists || f.extLen == 0 || (f.nsDirty && f.ackExists) {
			// The name's last create or remove was not acknowledged
			// over an acknowledged earlier life, or the file never
			// held data: either content is legal, nothing to compare.
			continue
		}
		if st.Size < f.ackSize || st.Size > f.size {
			bad(f, "size outside the acknowledged..written range")
			continue
		}
		if cap(buf) < f.extLen {
			buf = make([]byte, f.extLen)
		}
		buf = buf[:f.extLen]
		for ext := 0; int64(ext+1)*int64(f.extLen) <= st.Size; ext++ {
			checks++
			n, err := fs.Read(f.path, int64(ext)*int64(f.extLen), buf)
			if err != nil || n != f.extLen {
				bad(f, "extent unreadable after recovery")
				continue
			}
			if !f.acceptable(ext, crc32.ChecksumIEEE(buf), s.zeroCRC(f.extLen)) {
				bad(f, "extent holds bytes that were never written there")
			}
		}
	}
	return checks, violations
}

// acceptable reports whether crc is a legal post-crash content of the
// extent: the acknowledged one, or any write issued since.
func (f *shadowFile) acceptable(ext int, crc, zero uint32) bool {
	want := zero
	if ext < len(f.acked) {
		want = f.acked[ext]
	}
	if crc == want {
		return true
	}
	for _, w := range f.pending {
		if w.ext == ext && w.crc == crc {
			return true
		}
	}
	return false
}
