package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lfs/internal/experiments"
)

// writeBench writes summary the way main's loop does.
func writeBench(path string, summary map[string]any) error {
	return writeFile(path, func(w io.Writer) error { return experiments.WriteBench(w, summary) })
}

// TestBenchJSONDeterministic asserts that writing the same summary
// twice produces the same bytes — including nested structs, whose
// keys must come out in canonical (sorted) order, not Go field order.
func TestBenchJSONDeterministic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	type point struct {
		Zeta  float64 `json:"zeta"`
		Alpha int     `json:"alpha"`
	}
	summary := map[string]any{
		"experiment": "alpha",
		"ops_per_s":  123.456,
		"curve":      []point{{Zeta: 1.5, Alpha: 2}},
	}
	if err := writeBench(path, summary); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Nested object keys must be sorted, so the byte stream cannot
	// depend on struct field order.
	if za := bytes.Index(first, []byte(`"zeta"`)); za < bytes.Index(first, []byte(`"alpha"`)) {
		t.Errorf("nested keys not canonically sorted:\n%s", first)
	}
	if !bytes.Contains(first, []byte(`"ops_per_s": 123.456`)) {
		t.Errorf("number literal mangled:\n%s", first)
	}
	if !bytes.HasSuffix(first, []byte("\n")) {
		t.Error("output missing trailing newline")
	}
	// Rewriting the same experiment over its own file must be a
	// byte-for-byte no-op.
	if err := writeBench(path, summary); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("rewrite changed bytes:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestBenchJSONRejectsAnonymous covers the error paths: a summary that
// does not say which experiment it is, and a file that cannot be
// created.
func TestBenchJSONRejectsAnonymous(t *testing.T) {
	dir := t.TempDir()
	if err := writeBench(filepath.Join(dir, "BENCH.json"), map[string]any{"ops": 1}); err == nil {
		t.Error("summary without experiment name accepted")
	}
	if err := writeBench(filepath.Join(dir, "missing", "BENCH.json"), map[string]any{"experiment": "x"}); err == nil {
		t.Error("write into a missing directory reported no error")
	}
}
