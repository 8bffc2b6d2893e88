// Package rio provides format-dispatching RDF file I/O for the command-line
// tools — N-Triples (.nt) and Turtle (.ttl) readers behind one call — and the
// one crash-safe file writer every on-disk protocol file goes through.
package rio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"powl/internal/ntriples"
	"powl/internal/rdf"
	"powl/internal/turtle"
)

// LoadFile parses path into g, interning into dict. The format is chosen by
// extension: .ttl/.turtle → Turtle, anything else → N-Triples. Returns the
// number of triples added.
func LoadFile(path string, dict *rdf.Dict, g *rdf.Graph) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ttl", ".turtle":
		n, err := turtle.ReadGraph(f, dict, g)
		if err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		return n, nil
	default:
		n, err := ntriples.ReadGraph(f, dict, g)
		if err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		return n, nil
	}
}

// SaveFile writes g to path as N-Triples in deterministic order.
func SaveFile(path string, dict *rdf.Dict, g *rdf.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ntriples.WriteGraph(f, dict, g)
}

// WriteAtomic replaces path with the bytes write produces, crash-safely: the
// bytes go to a temp file in the same directory, which is fsynced and then
// renamed over path, and the directory is fsynced so the rename itself is
// durable. Readers see the old file or the complete new one, never a torn
// write. On failure path is untouched and the temp file is removed. The temp
// name starts with a dot, so globs for the final names never match it.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFileAtomic is WriteAtomic for a byte slice.
func WriteFileAtomic(path string, data []byte) error {
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
