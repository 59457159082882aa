package shard

import (
	"fmt"
	"slices"
	"sort"

	"lfs/internal/layout"
	"lfs/internal/obs"
	"lfs/internal/sim"
	"lfs/internal/vfs"
)

// route resolves a single-path operation to its owning shard,
// wrapping path validation errors with the operation name.
func (fs *FS) route(op, path string) (int, error) {
	parts, err := vfs.AppendPath(fs.parts[:0], path)
	if err != nil {
		return 0, vfs.WrapPathError(op, path, err)
	}
	return fs.place(parts), nil
}

// Create makes the file on its placed shard.
func (fs *FS) Create(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i, err := fs.route("create", path)
	if err != nil {
		return err
	}
	return fs.on(i).Create(path)
}

// Mkdir replicates the directory on every shard (in shard order), so
// the parent chain of any file exists wherever the hash may land.
func (fs *FS) Mkdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, err := vfs.AppendPath(fs.parts[:0], path); err != nil {
		return vfs.WrapPathError("mkdir", path, err)
	}
	for i := range fs.shards {
		if err := fs.on(i).Mkdir(path); err != nil {
			return err
		}
	}
	return nil
}

// Write stores data through the file's shard.
func (fs *FS) Write(path string, off int64, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i, err := fs.route("write", path)
	if err != nil {
		return err
	}
	return fs.on(i).Write(path, off, data)
}

// Read reads through the file's shard.
func (fs *FS) Read(path string, off int64, buf []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i, err := fs.route("read", path)
	if err != nil {
		return 0, err
	}
	return fs.on(i).Read(path, off, buf)
}

// Stat describes the path from its home shard. A replicated
// directory exists on every shard; its attributes are reported from
// the home shard (the deterministic hash of its path), which is also
// where a file of the same name would live. Its inode number is the
// router's (number).
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	home, err := fs.route("stat", path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	fi, err := fs.on(home).Stat(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	fi.Ino = fs.number(fi.Ino, home)
	return fi, nil
}

// number is the volume-wide inode number of shard i's inode ino:
// ino*N + i, unique across shards and the shard's own number at N = 1.
// Mount refuses a shard count whose numbers would not fit.
func (fs *FS) number(ino layout.Ino, i int) layout.Ino {
	return ino*layout.Ino(len(fs.shards)) + layout.Ino(i)
}

// ReadDir merges every shard's listing of the directory, deduplicated
// by name (a subdirectory appears on all shards) and name-sorted. Each
// name's entry is taken from the name's own home shard — the shard Stat
// would serve it from — and numbered as Stat numbers it, so ReadDir and
// Stat agree on every inode number.
func (fs *FS) ReadDir(path string) ([]layout.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parts, err := vfs.AppendPath(fs.parts[:0], path)
	if err != nil {
		return nil, vfs.WrapPathError("readdir", path, err)
	}
	home := fs.place(parts)
	lists := make([][]layout.DirEntry, len(fs.shards))
	errs := make([]error, len(fs.shards))
	for i := range fs.shards {
		lists[i], errs[i] = fs.on(i).ReadDir(path)
	}
	// The home shard's verdict wins: listing a file must fail with
	// its ErrNotDir, not a sibling shard's ErrNotExist.
	if errs[home] != nil {
		return nil, errs[home]
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	seen := make(map[string]layout.DirEntry)
	var names []string
	for i, list := range lists {
		for _, e := range list {
			_, ok := seen[e.Name]
			if !ok {
				names = append(names, e.Name)
			}
			if !ok || fs.place(append(parts[:len(parts):len(parts)], e.Name)) == i {
				seen[e.Name] = layout.DirEntry{Ino: fs.number(e.Ino, i), Name: e.Name}
			}
		}
	}
	sort.Strings(names)
	out := make([]layout.DirEntry, 0, len(names))
	for _, n := range names {
		out = append(out, seen[n])
	}
	return out, nil
}

// Remove unlinks a file on its shard; removing a directory first
// verifies it is empty on every shard (any entry anywhere fails the
// whole operation) and then removes every replica, so no shard is left
// with a stale copy.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parts, err := vfs.AppendPath(fs.parts[:0], path)
	if err != nil {
		return vfs.WrapPathError("remove", path, err)
	}
	home := fs.place(parts)
	if len(parts) == 0 {
		// The root: delegate for the exact core error (it cannot be
		// removed).
		return fs.on(home).Remove(path)
	}
	fi, err := fs.shards[home].Stat(path)
	if err != nil || !fi.IsDir() {
		// A file lives on its home shard alone; a missing path
		// delegates too, so the error carries the remove op, not stat.
		return fs.on(home).Remove(path)
	}
	for _, s := range fs.shards {
		ents, err := s.ReadDir(path)
		if err != nil {
			return vfs.WrapPathError("remove", path, err)
		}
		if len(ents) > 0 {
			return vfs.WrapPathError("remove", path, vfs.ErrNotEmpty)
		}
	}
	for i := range fs.shards {
		if err := fs.on(i).Remove(path); err != nil {
			return err
		}
	}
	return nil
}

// Rename moves oldPath to newPath when both place on one shard. A
// cross-shard rename fails with ErrCrossShard — a log-structured
// shard cannot atomically adopt blocks another log owns — as does
// renaming a directory when there is more than one shard (its
// descendants would re-hash to other shards).
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s, err := fs.relink("rename", oldPath, newPath)
	if err != nil {
		return err
	}
	return fs.on(s).Rename(oldPath, newPath)
}

// Link creates a hard link when both paths place on one shard; a
// cross-shard link fails with ErrCrossShard (an inode lives in
// exactly one shard's inode map).
func (fs *FS) Link(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s, err := fs.relink("link", oldPath, newPath)
	if err != nil {
		return err
	}
	return fs.on(s).Link(oldPath, newPath)
}

// relink implements the shared two-path placement rules of Rename
// and Link: it returns the shard that owns both ends, or the router's
// own refusal. A directory source is the router's to refuse for a
// rename when there is more than one shard — the router's only rule on
// the shard count; a link delegates it, and core rejects linking
// directories.
func (fs *FS) relink(op, oldPath, newPath string) (int, error) {
	po, err := vfs.AppendPath(fs.parts[:0], oldPath)
	if err != nil {
		return 0, vfs.WrapPathError(op, oldPath, err)
	}
	pn, err := vfs.AppendPath(po[len(po):], newPath) // behind po, which stays in use
	if err != nil {
		return 0, vfs.WrapPathError(op, oldPath, err)
	}
	so := fs.place(po)
	sn := fs.place(pn)
	fi, err := fs.shards[so].Stat(oldPath)
	if err != nil {
		// Source missing (or the root): delegate for the exact core
		// error under the right op name.
		return so, nil
	}
	if fi.IsDir() && op == "rename" && len(fs.shards) > 1 {
		return 0, vfs.WrapPathError(op, oldPath, fmt.Errorf(
			"%w: directory %q is replicated across shards", ErrCrossShard, oldPath))
	}
	if so != sn {
		return 0, vfs.WrapPathError(op, oldPath, fmt.Errorf(
			"%w: %q places on shard %d, %q on shard %d",
			ErrCrossShard, oldPath, so, newPath, sn))
	}
	return so, nil
}

// Truncate resizes the file through its shard.
func (fs *FS) Truncate(path string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i, err := fs.route("truncate", path)
	if err != nil {
		return err
	}
	return fs.on(i).Truncate(path, size)
}

// FsyncFile durably commits one file through its shard — the
// cross-shard group commit: every shard's pending data is issued with
// the home fsync, so disk service overlaps in simulated time across
// the array. A round ends when its longest transfer lands, so the
// shards are issued longest first: those ahead of the home shard
// before its fsync, the rest as its step, between its commit's issue
// and its wait; both are the span's fanout_wait. An error from another
// shard's flush (a crashed disk, say) is deliberately ignored: it must
// not fail this fsync, and it resurfaces on that shard's own operations.
func (fs *FS) FsyncFile(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	home, err := fs.route("fsync", path)
	if err != nil {
		return err
	}
	order := fs.byPending()
	k := slices.Index(order, home)
	// The home fsync waits for the shards ahead of it: park that time
	// for its span (backdated through NoteWait, timeline unchanged).
	t0 := fs.clock.Now()
	_ = fs.fanOut(order[:k])
	fs.parked.NoteWait(obs.PhaseFanout, fs.clock.Now().Sub(t0))
	fs.rest = order[k+1:]
	return fs.on(home).FsyncFileWith(path, fs.issueRest)
}

// byPending returns every shard's index, most pending work
// (core.FS.Pending) first, ties in shard order, sorted in the router's
// own buffers. Must be called with fs.mu held.
func (fs *FS) byPending() []int {
	order := fs.order[:0]
	for i, s := range fs.shards {
		fs.pending[i] = s.Pending()
		j := len(order)
		order = append(order, i)
		for ; j > 0 && fs.pending[order[j-1]] < fs.pending[i]; j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	fs.order = order
	return order
}

// fanOut issues the listed shards' dirty data with FlushAsync, in
// order, passing over those byPending found clean, and returns the
// first error; a failed shard stops no other.
func (fs *FS) fanOut(order []int) error {
	var first error
	for _, i := range order {
		if fs.pending[i] == 0 {
			continue
		}
		if err := fs.shards[i].FlushAsync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync flushes every shard. A first pass issues every shard's dirty
// data asynchronously, longest first as FsyncFile does, so the disks
// transfer in parallel; the second pass syncs each shard, mostly just
// waiting out its own horizon. All shards are attempted even when one
// fails (a crashed shard must not block the others' durability); the
// first error is returned.
func (fs *FS) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	first := fs.fanOut(fs.byPending())
	for i := range fs.shards {
		if err := fs.on(i).Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Unmount checkpoints and detaches every shard, in shard order; all
// shards are attempted and the first error returned.
func (fs *FS) Unmount() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var first error
	for i := range fs.shards {
		if err := fs.on(i).Unmount(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Crash drops every shard's volatile state without flushing, as if
// power failed on the whole array.
func (fs *FS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, s := range fs.shards {
		s.Crash()
	}
}

// DropCaches empties every shard's block cache.
func (fs *FS) DropCaches() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, s := range fs.shards {
		s.DropCaches()
	}
}

// SetClient labels subsequent operations on every shard with the
// issuing client's ID (server attribution).
func (fs *FS) SetClient(id int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, s := range fs.shards {
		s.SetClient(id)
	}
}

// TickMetrics advances every shard's metrics sampler to the current
// simulated time.
func (fs *FS) TickMetrics() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, s := range fs.shards {
		s.TickMetrics()
	}
}

// MetricsInterval is the shards' common sampling interval (shard 0's),
// zero when no sampler is attached.
func (fs *FS) MetricsInterval() sim.Duration { return fs.ShardFS(0).MetricsInterval() }

// SampleMetricsNow forces one sample row on every shard.
func (fs *FS) SampleMetricsNow() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, s := range fs.shards {
		s.SampleMetricsNow()
	}
}

var _ vfs.FileSystem = (*FS)(nil)
