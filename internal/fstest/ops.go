package fstest

// One operation vocabulary for every harness in this package: the
// generator behind RunEquivalence, the scripted crash-point workloads
// and the generated crash sweeps all produce Op values, one dispatcher
// applies them to any vfs.FileSystem, and one tree walk reads back what
// a file system holds.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"lfs/internal/layout"
	"lfs/internal/vfs"
)

// OpKind names the operation an Op performs.
type OpKind string

// The operation kinds. OpCheckpoint and OpClean reach the log-structured
// extras; on a file system without them (the model, FFS) they do
// nothing. Apply leaves OpClean to the crash battery, which hands it to
// the target's cleaner (Target.Clean). OpFsync is FsyncFile where the
// file system has one and Sync elsewhere; the crash battery credits it
// with no acknowledgement.
const (
	OpCreate     OpKind = "create"     // make an empty file at Path
	OpMkdir      OpKind = "mkdir"      // make a directory at Path
	OpWrite      OpKind = "write"      // write Data at Off in Path
	OpRead       OpKind = "read"       // read ReadLen bytes at Off from Path
	OpRemove     OpKind = "remove"     // unlink Path
	OpReadDir    OpKind = "readdir"    // list Path
	OpStat       OpKind = "stat"       // describe Path
	OpTruncate   OpKind = "truncate"   // resize Path to Size
	OpRename     OpKind = "rename"     // move Path to Path2
	OpLink       OpKind = "link"       // give Path's file the second name Path2
	OpSync       OpKind = "sync"       // flush all dirty data to disk
	OpFsync      OpKind = "fsync"      // flush Path's data and inode to disk
	OpCheckpoint OpKind = "checkpoint" // force a checkpoint
	OpClean      OpKind = "clean"      // run one cleaner pass
)

// Op is one step of an operation stream. Steps are values rather than
// closures so a harness can apply the same step to a file system and to
// the reference model and compare what each did.
type Op struct {
	Kind    OpKind
	Path    string
	Path2   string
	Off     int64
	Data    []byte
	Size    int64
	ReadLen int
}

// String renders the op for failure messages.
func (o Op) String() string {
	switch o.Kind {
	case OpWrite:
		return fmt.Sprintf("write %s off=%d len=%d", o.Path, o.Off, len(o.Data))
	case OpRead:
		return fmt.Sprintf("read %s off=%d len=%d", o.Path, o.Off, o.ReadLen)
	case OpRename, OpLink:
		return fmt.Sprintf("%s %s -> %s", o.Kind, o.Path, o.Path2)
	case OpTruncate:
		return fmt.Sprintf("truncate %s to %d", o.Path, o.Size)
	default:
		return string(o.Kind) + " " + o.Path
	}
}

// Result is what a reading op observed: Read's bytes, ReadDir's listing
// or Stat's description. Other ops leave it zero.
type Result struct {
	Data    []byte
	Entries []layout.DirEntry
	Info    vfs.FileInfo
}

// Apply performs o on fs and returns what it observed and its error.
func (o Op) Apply(fs vfs.FileSystem) (Result, error) {
	var res Result
	var err error
	switch o.Kind {
	case OpCreate:
		err = fs.Create(o.Path)
	case OpMkdir:
		err = fs.Mkdir(o.Path)
	case OpWrite:
		err = fs.Write(o.Path, o.Off, o.Data)
	case OpRead:
		buf := make([]byte, o.ReadLen)
		var n int
		n, err = fs.Read(o.Path, o.Off, buf)
		res.Data = buf[:n]
	case OpRemove:
		err = fs.Remove(o.Path)
	case OpReadDir:
		res.Entries, err = fs.ReadDir(o.Path)
	case OpStat:
		res.Info, err = fs.Stat(o.Path)
	case OpTruncate:
		err = fs.Truncate(o.Path, o.Size)
	case OpRename:
		err = fs.Rename(o.Path, o.Path2)
	case OpLink:
		err = fs.Link(o.Path, o.Path2)
	case OpSync:
		err = fs.Sync()
	case OpFsync:
		if f, ok := fs.(interface{ FsyncFile(string) error }); ok {
			err = f.FsyncFile(o.Path)
		} else {
			err = fs.Sync()
		}
	case OpCheckpoint:
		if c, ok := fs.(interface{ Checkpoint() error }); ok {
			err = c.Checkpoint()
		}
	case OpClean:
	default:
		err = fmt.Errorf("fstest: unknown op kind %q", o.Kind)
	}
	return res, err
}

// diffModel performs o on model and compares it with what o did on a
// file system (got, err). It returns a description of the first
// observable difference — error class, bytes read, names listed, size
// or type reported — or "" when they agree.
func diffModel(model vfs.FileSystem, o Op, got Result, err error) string {
	want, merr := o.Apply(model)
	switch {
	case errClass(err) != errClass(merr):
		return fmt.Sprintf("fs err %v, model err %v", err, merr)
	case err != nil:
		return ""
	case len(got.Data) != len(want.Data):
		return fmt.Sprintf("fs read %d bytes, model %d", len(got.Data), len(want.Data))
	case !bytes.Equal(got.Data, want.Data):
		return "read contents differ"
	case len(got.Entries) != len(want.Entries):
		return fmt.Sprintf("fs lists %d entries, model %d", len(got.Entries), len(want.Entries))
	case got.Info.Size != want.Info.Size || got.Info.IsDir() != want.Info.IsDir():
		return fmt.Sprintf("fs stat %+v, model stat %+v", got.Info, want.Info)
	}
	for i := range got.Entries {
		if got.Entries[i].Name != want.Entries[i].Name {
			return fmt.Sprintf("entry %d: fs %q, model %q", i, got.Entries[i].Name, want.Entries[i].Name)
		}
	}
	return ""
}

// errClass maps an error to the sentinel it wraps, so two
// implementations agree as long as they fail the same way.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, vfs.ErrNotExist):
		return "not-exist"
	case errors.Is(err, vfs.ErrExist):
		return "exist"
	case errors.Is(err, vfs.ErrIsDir):
		return "is-dir"
	case errors.Is(err, vfs.ErrNotDir):
		return "not-dir"
	case errors.Is(err, vfs.ErrNotEmpty):
		return "not-empty"
	case errors.Is(err, vfs.ErrNoSpace):
		return "no-space"
	case errors.Is(err, vfs.ErrTooLarge):
		return "too-large"
	case errors.Is(err, vfs.ErrInvalid):
		return "invalid"
	default:
		return "other:" + err.Error()
	}
}

// pathState is what one path holds: nothing, a directory, or a file's
// bytes.
type pathState struct {
	exists  bool
	isDir   bool
	content []byte
}

func (s pathState) describe() string {
	switch {
	case !s.exists:
		return "absent"
	case s.isDir:
		return "directory"
	default:
		return fmt.Sprintf("file of %d bytes", len(s.content))
	}
}

// sameKind reports whether s and o are both absent, both directories or
// both files, whatever the files hold.
func (s pathState) sameKind(o pathState) bool {
	return s.exists == o.exists && s.isDir == o.isDir
}

func (s pathState) equal(o pathState) bool {
	if s.exists != o.exists {
		return false
	}
	if !s.exists {
		return true
	}
	return s.isDir == o.isDir && (s.isDir || bytes.Equal(s.content, o.content))
}

// snapshotTree reads every path of fs, "/" included, with its state.
func snapshotTree(fs vfs.FileSystem) (map[string]pathState, error) {
	tree := map[string]pathState{}
	err := vfs.Walk(fs, "/", func(p string, fi vfs.FileInfo) error {
		st := pathState{exists: true, isDir: fi.IsDir()}
		if !st.isDir {
			st.content = make([]byte, fi.Size)
			if fi.Size > 0 {
				if _, err := fs.Read(p, 0, st.content); err != nil {
					return err
				}
			}
		}
		tree[p] = st
		return nil
	})
	return tree, err
}

// treeDiff describes the first way fs's tree differs from model's — a
// walk that fails, or a path missing, extra or holding something else —
// or returns "" when fs holds exactly the model's tree: the same paths,
// types and file contents.
func treeDiff(fs, model vfs.FileSystem) string {
	got, err := snapshotTree(fs)
	if err != nil {
		return fmt.Sprintf("walking the fs: %v", err)
	}
	want, err := snapshotTree(model)
	if err != nil {
		return fmt.Sprintf("walking the model: %v", err)
	}
	for _, p := range sortedKeys(want) {
		if !got[p].equal(want[p]) {
			return fmt.Sprintf("%s differs: fs has %s, model %s", p, got[p].describe(), want[p].describe())
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("fs holds %d paths, model %d", len(got), len(want))
	}
	return ""
}

// sortedKeys returns m's keys in order: histories, failure details and
// test output must not inherit map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
