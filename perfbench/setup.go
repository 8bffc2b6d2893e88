package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"powl/internal/core"
	"powl/internal/datagen"
	"powl/internal/query"
	"powl/internal/rdf"
	"powl/internal/serve"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// input is a run's parsed base and the oracle every output is checked
// against.
type input struct {
	ds *datagen.Dataset
	// oracle is the serial closure's triple set (sorted), and want the
	// canonical reads' row counts on it.
	oracle []rdf.Triple
	want   []int
}

// setup parses the input setupReps times; on the serving workload each
// repetition also builds the KB and starts a server up to its first
// healthy reply. The last parse is kept, and the serial closure computed on
// it becomes the oracle.
func (r *run) setup(nt []byte) (*input, error) {
	var setup, parse samples
	in := &input{}
	for i := 0; i < setupReps; i++ {
		t0 := now()
		ds, dParse, err := parseNT(r.w.name, nt)
		if err != nil {
			return nil, err
		}
		if r.w.batch == nil {
			s, err := startServer(buildKB(ds.Dict, ds.Graph), r.w.serveConfig(nil))
			if err != nil {
				return nil, err
			}
			setup.addDur(now()-t0, time.Second)
			if err := s.stop(); err != nil {
				return nil, err
			}
		} else {
			setup.addDur(now()-t0, time.Second)
		}
		parse.addDur(dParse, time.Second)
		in.ds = ds
	}
	r.set("setup_s", setup.median())
	r.set("ntriples.parse_s", parse.median())
	r.set("ntriples.triples_per_s", float64(in.ds.Graph.Len())/parse.median())

	sr, err := core.MaterializeSerial(in.ds, core.ForwardEngine)
	if err != nil {
		return nil, fmt.Errorf("serial oracle: %w", err)
	}
	in.oracle = sortedSet(sr.Graph.Triples())
	for _, q := range r.w.shape.queries {
		pq, err := query.Parse(q.text, in.ds.Dict)
		if err != nil {
			return nil, fmt.Errorf("canonical query %s: %w", q.name, err)
		}
		res, err := pq.SolveContext(context.Background(), sr.Graph.Snapshot())
		if err != nil {
			return nil, fmt.Errorf("calibrating %s: %w", q.name, err)
		}
		in.want = append(in.want, len(res.Rows))
	}
	r.info["base_triples"] = in.ds.Graph.Len()
	r.info["closure_triples"] = len(in.oracle)
	r.info["want_rows"] = in.want
	return in, nil
}

// buildKB is the serving path's load-time closure, with provenance so that
// deletes take the DRed path.
func buildKB(dict *rdf.Dict, g *rdf.Graph) *serve.KB {
	return serve.Build(dict, g, serve.BuildConfig{Prov: true})
}

// server is a serve.Server behind Server.Handler on a loopback port.
type server struct {
	*serve.Server
	base   string
	hs     *http.Server
	served chan struct{} // closed once Serve has returned
}

// startServer starts kb and waits for its first healthy reply.
func startServer(kb *serve.KB, cfg serve.Config) (*server, error) {
	srv, err := serve.New(kb, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing was accepted yet
		return nil, err
	}
	s := &server{Server: srv, base: "http://" + ln.Addr().String(),
		hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // always http.ErrServerClosed once stop shuts it down
	}()
	resp, err := http.Get(s.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = s.stop() // the health check's error is the one to report
		return nil, err
	}
	return s, nil
}

// stop closes the listener, then drains the server, so every accepted
// write is applied and published before it returns.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	if serr := s.Server.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}
