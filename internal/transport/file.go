package transport

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"powl/internal/ntriples"
	"powl/internal/obs"
	"powl/internal/rdf"
	"powl/internal/rio"
)

// File is the shared-filesystem transport of the paper's implementation
// (§V): every message is written as an N-Triples file into a shared
// directory and parsed back by the receiver. The full serialize/write/
// read/parse cost is paid, which is what the paper measures as "IO" in its
// overhead breakdown (Figure 2). Messages stay on disk after delivery, so a
// dead worker's inbox can be re-read by its adopter, and the directory may be
// shared by several processes as long as each sends only as its own worker.
type File struct {
	// Obs, when non-nil, receives one Batch call per message file written,
	// with the file's on-disk byte size.
	Obs *obs.TransportRecorder

	dir  string
	dict *rdf.Dict
	mu   sync.Mutex
	seq  map[[3]int]int // (round, from, to) -> next file sequence number
}

// NewFile returns a file transport rooted at dir (created if needed); dict
// resolves IDs for serialization and re-interns on receive.
func NewFile(dir string, dict *rdf.Dict) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("transport/file: %w", err)
	}
	return &File{dir: dir, dict: dict, seq: map[[3]int]int{}}, nil
}

// Name implements Transport.
func (*File) Name() string { return "file" }

// msgName is the base name of message seq from `from` to `to`; the lineage
// sidecar of the message adds linSuffix in place of its ".nt".
func msgName(from, to, seq int) string { return fmt.Sprintf("m_%d_%d_%d.nt", from, to, seq) }

const linSuffix = ".lin.jsonl"

func (f *File) roundDir(round int) string { return filepath.Join(f.dir, fmt.Sprintf("r%d", round)) }

// Send implements Transport. Messages are written to
// dir/r<round>/m_<from>_<to>_<seq>.nt through rio.WriteAtomic, so a
// concurrent Recv never observes a partial file.
func (f *File) Send(ctx context.Context, round, from, to int, ts []rdf.Triple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ts) == 0 {
		return nil
	}
	rdir := f.roundDir(round)
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return err
	}
	key := [3]int{round, from, to}
	f.mu.Lock()
	seq := f.seq[key]
	f.seq[key] = seq + 1
	f.mu.Unlock()
	final := filepath.Join(rdir, msgName(from, to, seq))
	if err := rio.WriteAtomic(final, func(w io.Writer) error {
		nw := ntriples.NewWriter(w, f.dict)
		if err := nw.WriteAll(ts); err != nil {
			return err
		}
		return nw.Flush()
	}); err != nil {
		return err
	}
	if f.Obs != nil {
		var size int64
		if fi, err := os.Stat(final); err == nil {
			size = fi.Size()
		}
		f.Obs.Batch(from, to, len(ts), size)
	}
	return nil
}

// SendLineage implements LineageCarrier: the records of the message the
// last Send from `from` to `to` wrote this round land in its sidecar file
// (JSON Lines, ntriples lineage codec). An empty set still writes the
// sidecar, so a receiver can tell a batch of asserted tuples from a sidecar
// lost to a crash; with no message sent there is nothing to describe.
func (f *File) SendLineage(ctx context.Context, round, from, to int, lins []rdf.Lineage) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	next, sent := f.seq[[3]int{round, from, to}]
	f.mu.Unlock()
	if !sent {
		return nil
	}
	name := strings.TrimSuffix(msgName(from, to, next-1), ".nt") + linSuffix
	return rio.WriteAtomic(filepath.Join(f.roundDir(round), name), func(w io.Writer) error {
		return ntriples.WriteLineage(w, f.dict, lins)
	})
}

// inbox lists the message files of the round addressed to `to`, as paths
// without the ".nt" suffix. A round nobody sent in has no directory.
func (f *File) inbox(round, to int) ([]string, error) {
	rdir := f.roundDir(round)
	entries, err := os.ReadDir(rdir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		var from, dst, seq int
		name := e.Name()
		if _, err := fmt.Sscanf(name, "m_%d_%d_%d.nt", &from, &dst, &seq); err != nil || dst != to || name != msgName(from, dst, seq) {
			continue
		}
		out = append(out, filepath.Join(rdir, strings.TrimSuffix(name, ".nt")))
	}
	return out, nil
}

// Recv implements Transport: it parses every m_*_<to>_*.nt file of the round
// addressed to this worker.
func (f *File) Recv(ctx context.Context, round, to int) ([]rdf.Triple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	msgs, err := f.inbox(round, to)
	if err != nil {
		return nil, err
	}
	var out []rdf.Triple
	for _, m := range msgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := os.Open(m + ".nt")
		if err != nil {
			return nil, err
		}
		g := rdf.NewGraph()
		_, perr := ntriples.ReadGraph(r, f.dict, g)
		r.Close()
		if perr != nil {
			// A file that exists (rename is atomic) but does not parse is
			// corrupt, not in flight: retrying cannot help.
			return nil, fmt.Errorf("transport/file: %s: %w: %v", filepath.Base(m), ErrMalformed, perr)
		}
		out = append(out, g.TriplesSince(0)...)
	}
	return out, nil
}

// RecvLineage implements LineageCarrier: the records of every sidecar next
// to a message Recv returns for the round. Messages without a sidecar are
// reported through an error wrapping ErrLineageMissing, alongside the
// records that were found.
func (f *File) RecvLineage(ctx context.Context, round, to int) ([]rdf.Lineage, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	msgs, err := f.inbox(round, to)
	if err != nil {
		return nil, err
	}
	var out []rdf.Lineage
	var missing []string
	for _, m := range msgs {
		r, err := os.Open(m + linSuffix)
		if os.IsNotExist(err) {
			missing = append(missing, filepath.Base(m))
			continue
		}
		if err != nil {
			return nil, err
		}
		lins, rerr := ntriples.ReadLineage(r, f.dict)
		r.Close()
		if rerr != nil {
			return nil, fmt.Errorf("transport/file: %s: %w: %v", filepath.Base(m)+linSuffix, ErrMalformed, rerr)
		}
		out = append(out, lins...)
	}
	if len(missing) > 0 {
		return out, fmt.Errorf("transport/file: round %d, messages %s: %w", round, strings.Join(missing, ", "), ErrLineageMissing)
	}
	return out, nil
}

// Close implements Transport, removing the message directory.
func (f *File) Close() error { return os.RemoveAll(f.dir) }
