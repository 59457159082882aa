package vfs

import (
	"fmt"

	"lfs/internal/layout"
	"lfs/internal/sim"
)

// Model is an in-memory reference implementation of FileSystem with
// deliberately simple data structures (a literal tree of nodes and
// byte slices). It exists to be *obviously* correct: property tests
// drive a real file system and a Model with the same operation
// sequence and require identical observable behaviour.
type Model struct {
	root      *modelNode
	nextIno   layout.Ino
	clock     *sim.Clock
	unmounted bool

	// MaxFileSize bounds file growth, mirroring the double-indirect
	// limit of the real file systems; zero means unlimited.
	MaxFileSize int64
}

type modelNode struct {
	ino      layout.Ino
	isDir    bool
	data     []byte
	children map[string]*modelNode
	nlink    int
	mtime    sim.Time
	atime    sim.Time
}

// NewModel returns an empty model file system. The clock may be nil,
// in which case all timestamps stay zero.
func NewModel(clock *sim.Clock) *Model {
	return &Model{
		root:    &modelNode{ino: layout.RootIno, isDir: true, children: map[string]*modelNode{}, nlink: 2},
		nextIno: layout.RootIno + 1,
		clock:   clock,
	}
}

func (m *Model) now() sim.Time {
	if m.clock == nil {
		return 0
	}
	return m.clock.Now()
}

func (m *Model) check() error {
	if m.unmounted {
		return ErrUnmounted
	}
	return nil
}

// lookup walks the components to a node.
func (m *Model) lookup(parts []string) (*modelNode, error) {
	n := m.root
	for i, p := range parts {
		if !n.isDir {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
		}
		child, ok := n.children[p]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotExist, parts[:i+1])
		}
		n = child
	}
	return n, nil
}

// node resolves path in a live model.
func (m *Model) node(path string) (*modelNode, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	parts, err := SplitPath(path)
	if err != nil {
		return nil, err
	}
	return m.lookup(parts)
}

// lookupParent resolves the parent directory of path in a live model,
// and returns it with the parent's components and the leaf name.
func (m *Model) lookupParent(path string) (*modelNode, []string, string, error) {
	if err := m.check(); err != nil {
		return nil, nil, "", err
	}
	dir, base, err := SplitDirBase(path)
	if err != nil {
		return nil, nil, "", err
	}
	parent, err := m.lookup(dir)
	if err != nil {
		return nil, nil, "", err
	}
	if !parent.isDir {
		return nil, nil, "", fmt.Errorf("%w: parent of %q", ErrNotDir, path)
	}
	return parent, dir, base, nil
}

func (m *Model) create(path string, isDir bool) error {
	parent, _, base, err := m.lookupParent(path)
	if err != nil {
		return err
	}
	if _, exists := parent.children[base]; exists {
		return fmt.Errorf("%w: %q", ErrExist, path)
	}
	n := &modelNode{ino: m.nextIno, isDir: isDir, nlink: 1, mtime: m.now(), atime: m.now()}
	if isDir {
		n.children = map[string]*modelNode{}
		n.nlink = 2
	}
	m.nextIno++
	parent.children[base] = n
	parent.mtime = m.now()
	return nil
}

// Create makes a new empty regular file.
func (m *Model) Create(path string) error { return m.create(path, false) }

// Mkdir makes a new empty directory.
func (m *Model) Mkdir(path string) error { return m.create(path, true) }

func (m *Model) fileNode(path string) (*modelNode, error) {
	n, err := m.node(path)
	if err != nil {
		return nil, err
	}
	if n.isDir {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, path)
	}
	return n, nil
}

// Write stores data at off, growing the file as needed.
func (m *Model) Write(path string, off int64, data []byte) error {
	n, err := m.fileNode(path)
	if err != nil {
		return err
	}
	if off < 0 {
		return fmt.Errorf("%w: negative offset %d", ErrInvalid, off)
	}
	end := off + int64(len(data))
	if m.MaxFileSize > 0 && end > m.MaxFileSize {
		return fmt.Errorf("%w: %q to %d bytes", ErrTooLarge, path, end)
	}
	if end > int64(len(n.data)) {
		grown := make([]byte, end)
		copy(grown, n.data)
		n.data = grown
	}
	copy(n.data[off:], data)
	n.mtime = m.now()
	return nil
}

// Read fills buf from off.
func (m *Model) Read(path string, off int64, buf []byte) (int, error) {
	n, err := m.fileNode(path)
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset %d", ErrInvalid, off)
	}
	n.atime = m.now()
	if off >= int64(len(n.data)) {
		return 0, nil
	}
	return copy(buf, n.data[off:]), nil
}

// Stat describes the file at path.
func (m *Model) Stat(path string) (FileInfo, error) {
	n, err := m.node(path)
	if err != nil {
		return FileInfo{}, err
	}
	fi := FileInfo{Ino: n.ino, Size: int64(len(n.data)), Nlink: n.nlink, Mtime: n.mtime, Atime: n.atime}
	if n.isDir {
		fi.Mode = layout.ModeDir | 0o755
		fi.Size = 0
	} else {
		fi.Mode = layout.ModeFile | 0o644
	}
	return fi, nil
}

// ReadDir lists a directory in name order.
func (m *Model) ReadDir(path string) ([]layout.DirEntry, error) {
	n, err := m.node(path)
	if err != nil {
		return nil, err
	}
	if !n.isDir {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, path)
	}
	entries := make([]layout.DirEntry, 0, len(n.children))
	for name, child := range n.children {
		entries = append(entries, layout.DirEntry{Ino: child.ino, Name: name})
	}
	layout.SortEntries(entries)
	return entries, nil
}

// Remove unlinks a file or removes an empty directory.
func (m *Model) Remove(path string) error {
	parent, _, base, err := m.lookupParent(path)
	if err != nil {
		return err
	}
	n, ok := parent.children[base]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, path)
	}
	if n.isDir && len(n.children) > 0 {
		return fmt.Errorf("%w: %q", ErrNotEmpty, path)
	}
	delete(parent.children, base)
	if !n.isDir {
		n.nlink-- // other hard links keep the node alive
	}
	parent.mtime = m.now()
	return nil
}

// Rename moves oldPath to newPath; newPath must not exist.
func (m *Model) Rename(oldPath, newPath string) error {
	oldParent, oldDir, oldBase, err := m.lookupParent(oldPath)
	if err != nil {
		return err
	}
	n, ok := oldParent.children[oldBase]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, oldPath)
	}
	newParent, newDir, newBase, err := m.lookupParent(newPath)
	if err != nil {
		return err
	}
	if _, exists := newParent.children[newBase]; exists {
		return fmt.Errorf("%w: %q", ErrExist, newPath)
	}
	// Reject moving a directory into itself (newPath strictly below
	// oldPath).
	if n.isDir && within(newDir, oldDir, oldBase) {
		return fmt.Errorf("%w: cannot move %q inside itself", ErrInvalid, oldPath)
	}
	delete(oldParent.children, oldBase)
	newParent.children[newBase] = n
	oldParent.mtime = m.now()
	newParent.mtime = m.now()
	return nil
}

// Link creates a second directory entry for the file at oldPath.
func (m *Model) Link(oldPath, newPath string) error {
	n, err := m.fileNode(oldPath) // rejects directories with ErrIsDir
	if err != nil {
		return err
	}
	newParent, _, newBase, err := m.lookupParent(newPath)
	if err != nil {
		return err
	}
	if _, exists := newParent.children[newBase]; exists {
		return fmt.Errorf("%w: %q", ErrExist, newPath)
	}
	newParent.children[newBase] = n
	n.nlink++
	newParent.mtime = m.now()
	return nil
}

// Truncate sets the file length.
func (m *Model) Truncate(path string, size int64) error {
	n, err := m.fileNode(path)
	if err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("%w: negative size %d", ErrInvalid, size)
	}
	if m.MaxFileSize > 0 && size > m.MaxFileSize {
		return fmt.Errorf("%w: %q to %d bytes", ErrTooLarge, path, size)
	}
	switch {
	case size <= int64(len(n.data)):
		n.data = n.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, n.data)
		n.data = grown
	}
	n.mtime = m.now()
	return nil
}

// Sync is a no-op: the model has no disk.
func (m *Model) Sync() error { return m.check() }

// Unmount detaches the model.
func (m *Model) Unmount() error {
	if err := m.check(); err != nil {
		return err
	}
	m.unmounted = true
	return nil
}
