package rio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.nt")
	for _, want := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read %q, %v; want %q", got, err, want)
		}
	}
}

// TestWriteAtomicFailureKeepsOldFile: a write that fails midway leaves the
// previous content in place, and neither a stray final name nor a temp file
// behind.
func TestWriteAtomicFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.nt")
	if err := WriteFileAtomic(old, []byte("old\n")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	half := func(w io.Writer) error {
		if _, err := w.Write([]byte("half")); err != nil {
			return err
		}
		return boom
	}
	if err := WriteAtomic(old, half); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	fresh := filepath.Join(dir, "fresh.nt")
	if err := WriteAtomic(fresh, half); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got, err := os.ReadFile(old); err != nil || string(got) != "old\n" {
		t.Fatalf("old file = %q, %v; want it intact", got, err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Fatalf("failed write left its final name behind: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only old.nt", names)
	}
}
