package vfs

import (
	"lfs/internal/cache"
	"lfs/internal/layout"
)

// Ptr is where one block pointer of a file lives: a field of its inode,
// or entry i of the cached indirect block b. The zero Ptr is a pointer
// under an indirect block that does not exist; it reads as a hole.
type Ptr struct {
	field *layout.DiskAddr
	b     *cache.Block
	i     int
}

// Get returns the address the pointer holds.
func (p Ptr) Get() layout.DiskAddr {
	switch {
	case p.field != nil:
		return *p.field
	case p.b != nil:
		return layout.AddrAt(p.b.Data, p.i)
	}
	return layout.NilAddr
}

// Set stores a in the pointer and returns the indirect block that holds
// it, nil when it is a field of the inode: the caller dirties whichever
// it is.
func (p Ptr) Set(a layout.DiskAddr) *cache.Block {
	if p.field != nil {
		*p.field = a
		return nil
	}
	layout.SetAddrAt(p.b.Data, p.i, a)
	return p.b
}

// IndirectFunc is what a file system supplies to the walk: indirect
// block id of in, which p points at, through the block cache. A missing
// block is nil without create; with create it is a new all-holes block,
// which LFS addresses when the segment writer logs it and FFS allocates
// in place, repointing p. It is bound once at mount, so the walk
// allocates nothing.
type IndirectFunc func(in *layout.Inode, id int64, p Ptr, create bool) (*cache.Block, error)

// BlockPtr returns where the pointer to in's data block lbn lives, under
// a block size of bs, reaching indirect blocks through ind. Without
// create, a pointer under a missing indirect block is the zero Ptr.
func BlockPtr(in *layout.Inode, lbn int64, bs int, ind IndirectFunc, create bool) (Ptr, error) {
	path, err := layout.MapBlock(lbn, bs)
	if err != nil {
		return Ptr{}, err
	}
	if path.Level == 0 {
		return Ptr{field: &in.Direct[path.Direct]}, nil
	}
	id := layout.IndSingle
	if path.Level == 2 {
		id = layout.IndDoubleInner + int64(path.Outer)
	}
	p, err := IndirectPtr(in, id, ind, create)
	if err != nil || p == (Ptr{}) {
		return Ptr{}, err
	}
	b, err := ind(in, id, p, create)
	if err != nil || b == nil {
		return Ptr{}, err
	}
	return Ptr{b: b, i: path.Inner}, nil
}

// IndirectPtr returns where the pointer to in's indirect block id lives:
// the inode for the single and outer blocks, the outer block for an
// inner one.
func IndirectPtr(in *layout.Inode, id int64, ind IndirectFunc, create bool) (Ptr, error) {
	switch id {
	case layout.IndSingle:
		return Ptr{field: &in.Indirect}, nil
	case layout.IndDoubleOuter:
		return Ptr{field: &in.DoubleIndirect}, nil
	}
	outer, err := ind(in, layout.IndDoubleOuter, Ptr{field: &in.DoubleIndirect}, create)
	if err != nil || outer == nil {
		return Ptr{}, err
	}
	return Ptr{b: outer, i: int(id - layout.IndDoubleInner)}, nil
}
