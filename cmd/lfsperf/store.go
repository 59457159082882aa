package main

import "lfs/internal/disk"

// timedStore is the benchmark's measuring point beneath the disk
// model: it forwards every disk.Store call and records a host-time
// span and the byte counts. Only the traced repetition uses it; the
// simulation never sees a difference, because the disk model takes
// nothing from the store but bytes.
type timedStore struct {
	disk.Store
	tr *tracer

	readCalls, writeCalls   int64
	bytesRead, bytesWritten int64
}

func (s *timedStore) ReadAt(p []byte, off int64) error {
	sp := s.tr.begin(layerStore, "read_at")
	err := s.Store.ReadAt(p, off)
	s.tr.end(sp)
	s.readCalls++
	s.bytesRead += int64(len(p))
	return err
}

func (s *timedStore) WriteAt(p []byte, off int64) error {
	sp := s.tr.begin(layerStore, "write_at")
	err := s.Store.WriteAt(p, off)
	s.tr.end(sp)
	s.writeCalls++
	s.bytesWritten += int64(len(p))
	return err
}
