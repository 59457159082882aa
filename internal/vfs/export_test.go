package vfs

import (
	"lfs/internal/cache"
	"lfs/internal/layout"
)

// What the name-cache tests need beyond Complete and Check, kept out
// of the shipped API.

// NameCacheDirLimit is the per-directory name cache bound.
const NameCacheDirLimit = nameCacheDirLimit

// ForgetCounts drops every learned entry count, so no name cache is
// complete and every negative lookup byte-scans — the behaviour the
// fast path is compared against.
func (d *Dirs) ForgetCounts() { clear(d.entryCount) }

// ForgetValidation drops the end every cached block records, so the
// next insert or remove on each validates it in full, and returns how
// many had one. It visits the blocks through RemoveMatching with a
// predicate that removes none, and Peek: no statistic or LRU position
// moves.
func (d *Dirs) ForgetValidation() int {
	n := 0
	d.bc.RemoveMatching(func(k cache.Key) bool {
		if b := d.bc.Peek(k); b.DirEnd != 0 {
			b.DirEnd = 0
			n++
		}
		return false
	})
	return n
}

// EntryCount returns the directory's learned entry count, if any.
func (d *Dirs) EntryCount(dir layout.Ino) (int, bool) {
	n, ok := d.entryCount[dir]
	return n, ok
}

// CachedNames returns how many of the directory's names are cached.
func (d *Dirs) CachedNames(dir layout.Ino) int { return len(d.names[dir]) }
