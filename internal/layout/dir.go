package layout

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Directory blocks hold a packed sequence of variable-length entries:
// a uint16 record count followed by records of the form
//
//	ino (4 bytes) | name length (2 bytes) | name bytes
//
// Entries never straddle blocks and the bytes past the last entry are
// zero. Lookup, insertion and removal work on the block in place: one
// scanner (scanDirBlock) validates every entry and compares name bytes
// without building strings, insertion appends at the tail
// (DirBlockAppendAt), removal shifts the following entries down
// (DirBlockRemoveAt). Only DirBlockEntries, for ReadDir and fsck,
// materialises entries. What a directory operation costs in simulated
// time is charged through the CPU model by the file systems, not here.
//
// DirBlockFind, DirBlockInsert and DirBlockRemove validate the whole
// block on every call. DirBlockAppendAt and DirBlockRemoveAt take the
// end their caller recorded (vfs.Dirs, per cached copy): from end 0 they
// validate the block once and return its end; from a recorded end they
// append there unread, or walk only as far as the name. Bytes damaged
// after that validation are left to the full readers and a fresh copy.

// MaxNameLen is the longest permitted file name, matching BSD.
const MaxNameLen = 255

// DirEntry is one name-to-inode binding.
type DirEntry struct {
	Ino  Ino
	Name string
}

// DirEntrySize returns the encoded size of an entry with the given
// name.
func DirEntrySize(name string) int { return 4 + 2 + len(name) }

// dirHeaderSize is the per-block overhead (the record count).
const dirHeaderSize = 2

// ValidName reports an error for names that cannot be stored: empty,
// too long, or containing a path separator or NUL.
func ValidName(name string) error {
	if name == "" {
		return fmt.Errorf("layout: empty file name")
	}
	if len(name) > MaxNameLen {
		return fmt.Errorf("layout: file name longer than %d bytes", MaxNameLen)
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return fmt.Errorf("layout: file name %q contains %q", name, name[i])
		}
	}
	return nil
}

// InitDirBlock formats p as an empty directory block.
func InitDirBlock(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

// dirEntryHeader is the fixed part of an entry: inode number and name
// length.
const dirEntryHeader = 4 + 2

// dirEntryEnd validates entry i, which starts at offset off, and
// returns the offset just past it; its name is p[off+dirEntryHeader:end].
// Every reader of a directory block goes through it, so they all
// reject the same blocks with the same errors.
func dirEntryEnd(p []byte, off, i int) (int, error) {
	if off+dirEntryHeader > len(p) {
		return 0, fmt.Errorf("layout: directory block truncated at entry %d", i)
	}
	nlen := int(binary.LittleEndian.Uint16(p[off+4:]))
	end := off + dirEntryHeader + nlen
	if nlen == 0 || nlen > MaxNameLen || end > len(p) {
		return 0, fmt.Errorf("layout: directory entry %d has bad name length %d", i, nlen)
	}
	return end, nil
}

// DirBlockEntries decodes all entries in the block.
func DirBlockEntries(p []byte) ([]DirEntry, error) {
	count, err := DirBlockCount(p)
	if err != nil {
		return nil, err
	}
	entries := make([]DirEntry, 0, count)
	off := dirHeaderSize
	for i := 0; i < count; i++ {
		end, err := dirEntryEnd(p, off, i)
		if err != nil {
			return nil, err
		}
		entries = append(entries, DirEntry{
			Ino:  Ino(binary.LittleEndian.Uint32(p[off:])),
			Name: string(p[off+dirEntryHeader : end]),
		})
		off = end
	}
	return entries, nil
}

// scanDirBlock walks the whole block in place. It returns the offset
// of the first entry called name (-1 when there is none, always for "")
// and the offset just past the last entry. The walk never stops at a
// match: a block with a corrupt entry anywhere is an error for every
// operation that scans.
func scanDirBlock(p []byte, name string) (at, end int, err error) {
	count, err := DirBlockCount(p)
	if err != nil {
		return 0, 0, err
	}
	at = -1
	off := dirHeaderSize
	for i := 0; i < count; i++ {
		next, err := dirEntryEnd(p, off, i)
		if err != nil {
			return 0, 0, err
		}
		if at < 0 && string(p[off+dirEntryHeader:next]) == name {
			at = off
		}
		off = next
	}
	return at, off, nil
}

// validEnd returns end or, when end is 0 (not known), validates the
// whole block and returns where its entries end.
func validEnd(p []byte, end int) (int, error) {
	if end != 0 {
		return end, nil
	}
	_, end, err := scanDirBlock(p, "")
	return end, err
}

// DirBlockInsert adds an entry to the block, returning false when the
// block has no room. It rejects invalid names and duplicate names
// within the block.
func DirBlockInsert(p []byte, e DirEntry) (bool, error) {
	if err := ValidName(e.Name); err != nil {
		return false, err
	}
	at, end, err := scanDirBlock(p, e.Name)
	if err != nil {
		return false, err
	}
	if at >= 0 {
		return false, fmt.Errorf("layout: duplicate directory entry %q", e.Name)
	}
	_, ok, err := DirBlockAppendAt(p, end, e)
	return ok, err
}

// DirBlockAppendAt adds e at end, where the block's entries end (0: not
// known, so validate the block to find it), and returns the new end and
// true, or end and false when there is no room. It looks for no
// duplicate: the caller vouches that the block has no entry e.Name and
// that only DirBlockAppendAt and DirBlockRemoveAt wrote it since end.
func DirBlockAppendAt(p []byte, end int, e DirEntry) (int, bool, error) {
	if err := ValidName(e.Name); err != nil {
		return end, false, err
	}
	end, err := validEnd(p, end)
	if err != nil || end+DirEntrySize(e.Name) > len(p) {
		return end, false, err
	}
	binary.LittleEndian.PutUint16(p, binary.LittleEndian.Uint16(p)+1)
	binary.LittleEndian.PutUint32(p[end:], uint32(e.Ino))
	binary.LittleEndian.PutUint16(p[end+4:], uint16(len(e.Name)))
	end += dirEntryHeader
	end += copy(p[end:], e.Name)
	clear(p[end:]) // restores the zero tail even if the block arrived without one
	return end, true, nil
}

// DirBlockRemove deletes the named entry, reporting whether it was
// present.
func DirBlockRemove(p []byte, name string) (bool, error) {
	at, end, err := scanDirBlock(p, name)
	if err != nil || at < 0 {
		return false, err
	}
	_, ok, err := DirBlockRemoveAt(p, end, name)
	return ok, err
}

// DirBlockRemoveAt deletes the named entry, walking only as far as it,
// from a block whose entries end at end (as for DirBlockAppendAt), and
// returns the new end and whether the entry was present.
func DirBlockRemoveAt(p []byte, end int, name string) (int, bool, error) {
	end, err := validEnd(p, end)
	if err != nil {
		return 0, false, err
	}
	for off, i := dirHeaderSize, 0; off < end; i++ {
		next, err := dirEntryEnd(p[:end], off, i)
		if err != nil {
			return 0, false, err
		}
		if string(p[off+dirEntryHeader:next]) == name {
			binary.LittleEndian.PutUint16(p, binary.LittleEndian.Uint16(p)-1)
			end = off + copy(p[off:], p[next:end])
			clear(p[end:])
			return end, true, nil
		}
		off = next
	}
	return end, false, nil
}

// DirBlockFind looks the name up in the block.
func DirBlockFind(p []byte, name string) (Ino, bool, error) {
	at, _, err := scanDirBlock(p, name)
	if err != nil || at < 0 {
		return 0, false, err
	}
	return Ino(binary.LittleEndian.Uint32(p[at:])), true, nil
}

// DirBlockCount returns the number of entries in the block.
func DirBlockCount(p []byte) (int, error) {
	if len(p) < dirHeaderSize {
		return 0, fmt.Errorf("layout: directory block shorter than header")
	}
	return int(binary.LittleEndian.Uint16(p)), nil
}

// SortEntries orders entries by name, for deterministic ReadDir
// output.
func SortEntries(entries []DirEntry) {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
}
