// Worker recovery for the shared-filesystem cluster.
//
// The fault model is fail-stop: a node process dies (crash, OOM, kill) and
// simply stops writing files. Its peers block at the done-marker barrier, so
// without intervention one dead worker wedges the whole round. Recovery is
// package cluster's, with files as its seams:
//
//  1. Checkpoints. Every node's worker checkpoints its per-round routing
//     delta and received tuples (cluster.DirCheckpoints in the work
//     directory) before its marker. Base partition + checkpoints + messages
//     addressed to the node reconstruct its graph at the last round it
//     completed; anything it derived after is re-derivable, because forward
//     inference is deterministic and monotone over the same inputs.
//
//  2. Supervision. The master runs Supervise alongside the nodes. It watches
//     the marker files; once any node posts a round's marker, the rest have
//     RoundDeadline to follow. A laggard is declared dead by writing its
//     dead-file, whose content names the adopter (the lowest live node id).
//
//  3. Adoption. A node blocked at the barrier (fileBarrier) notices a
//     missing marker whose dead-file chain ends at it and claims the dead
//     peer on the spot: it writes the peer's marker with the sentinel 1, so
//     the round completes cluster-wide but cannot read as quiescent, and
//     its worker absorbs the peer at the top of the next round — the rule
//     the in-process barrier applies when it shrinks. From then on the
//     adopter writes the dead peer's markers (0) each round and drains its
//     inbox: the ownership table is immutable, so the rest of the cluster
//     keeps routing to the dead node and correctness is preserved without
//     re-partitioning. An adopter that dies in turn is claimed along with
//     everything it had claimed, since the dead-file chains now end at its
//     own adopter.
package fscluster

import (
	"context"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"powl/internal/cluster"
	"powl/internal/rdf"
	"powl/internal/rio"
	"powl/internal/rules"
)

// SuperviseConfig configures the master-side failure detector.
type SuperviseConfig struct {
	Dir string
	K   int
	// Poll is the marker-polling interval; 0 means 20ms.
	Poll time.Duration
	// RoundDeadline is how long a node may trail the round's first marker
	// (or, at the end, the first closure file) before being declared dead;
	// 0 means 2s. Must comfortably exceed the slowest node's round time:
	// a false positive makes two nodes serve one partition, which is
	// correct only while the "dead" node never writes another marker.
	RoundDeadline time.Duration
	// Timeout bounds the whole supervision; 0 means 5 minutes.
	Timeout time.Duration
}

// SuperviseResult reports what the detector did.
type SuperviseResult struct {
	// Dead maps each node declared dead to the adopter chosen for it.
	Dead map[int]int
}

// Supervise watches a running cluster's work directory until every live node
// has written its closure file, declaring nodes dead when they miss the round
// deadline. Run it concurrently with the nodes (cmd/owlcluster -run does).
//
//powl:ignore wallclock the supervisor's round deadlines are real-time liveness checks by design.
func Supervise(ctx context.Context, cfg SuperviseConfig) (*SuperviseResult, error) {
	if cfg.Poll <= 0 {
		cfg.Poll = 20 * time.Millisecond
	}
	if cfg.RoundDeadline <= 0 {
		cfg.RoundDeadline = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	l := Layout{Dir: cfg.Dir}
	res := &SuperviseResult{Dead: map[int]int{}}
	// firstSeen[r] is when the supervisor first observed any round-r marker;
	// index len(firstSeen) is the frontier round nobody has posted yet.
	// firstClosure is the same clock for the closure-writing phase.
	var firstSeen []time.Time
	var firstClosure time.Time
	deadline := time.Now().Add(cfg.Timeout)

	// Pre-existing dead-files (e.g. supervisor restart) are honoured.
	for i := 0; i < cfg.K; i++ {
		if adopter, dead := readDeadFile(l, i); dead {
			res.Dead[i] = adopter
		}
	}

	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("fscluster: supervisor timed out")
		}

		// Done when every live node has its closure on disk.
		closures := 0
		for i := 0; i < cfg.K; i++ {
			if _, isDead := res.Dead[i]; isDead {
				continue
			}
			if _, err := os.Stat(l.ClosureFile(i)); err == nil {
				closures++
			}
		}
		if closures == cfg.K-len(res.Dead) {
			return res, nil
		}
		if closures > 0 {
			// End-of-run laggard: died after its last marker, before its
			// closure. Nobody is left to adopt; MergeClosures reconstructs.
			if firstClosure.IsZero() {
				firstClosure = time.Now()
			}
			if time.Since(firstClosure) > cfg.RoundDeadline {
				for i := 0; i < cfg.K; i++ {
					if _, isDead := res.Dead[i]; isDead {
						continue
					}
					if _, err := os.Stat(l.ClosureFile(i)); err != nil {
						if err := declareDead(l, i, cfg.K, res.Dead); err != nil {
							return res, err
						}
					}
				}
			}
		}

		// Advance the marker frontier and stamp newly observed rounds.
		for anyMarker(l, len(firstSeen), cfg.K) {
			firstSeen = append(firstSeen, time.Now())
		}

		// Within the newest active round, declare laggards past the deadline.
		if r := len(firstSeen) - 1; r >= 0 && time.Since(firstSeen[r]) > cfg.RoundDeadline {
			for i := 0; i < cfg.K; i++ {
				if _, isDead := res.Dead[i]; isDead {
					continue
				}
				if _, err := os.Stat(l.MarkerFile(r, i)); err != nil {
					if err := declareDead(l, i, cfg.K, res.Dead); err != nil {
						return res, err
					}
				}
			}
		}

		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(cfg.Poll):
		}
	}
}

// anyMarker reports whether any node has posted its round-r marker.
func anyMarker(l Layout, round, k int) bool {
	for i := 0; i < k; i++ {
		if _, err := os.Stat(l.MarkerFile(round, i)); err == nil {
			return true
		}
	}
	return false
}

// declareDead writes victim's dead-file naming the lowest live node as
// adopter and records the decision.
func declareDead(l Layout, victim, k int, dead map[int]int) error {
	adopter := -1
	for i := 0; i < k; i++ {
		if i == victim {
			continue
		}
		if _, isDead := dead[i]; isDead {
			continue
		}
		adopter = i
		break
	}
	if adopter < 0 {
		return fmt.Errorf("fscluster: node %d dead with no live adopter", victim)
	}
	if err := rio.WriteFileAtomic(l.DeadFile(victim), []byte(strconv.Itoa(adopter))); err != nil {
		return err
	}
	dead[victim] = adopter
	return nil
}

// readDeadFile reports whether node id has been declared dead and, if so,
// which node adopted it.
func readDeadFile(l Layout, id int) (adopter int, dead bool) {
	b, err := os.ReadFile(l.DeadFile(id))
	if err != nil {
		return 0, false
	}
	a, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return 0, false
	}
	return a, true
}

// readEpoch returns how many times node id has started against this work
// directory, 0 if never.
func readEpoch(l Layout, id int) (int, error) {
	b, err := os.ReadFile(l.EpochFile(id))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
}

// lastCompletedRound scans node id's done-markers upward from round 0 and
// returns the last consecutive round the node completed, -1 if none. The
// markers are written in order, so the first gap is the round the node died
// in (or, for an adopted peer, the round its adopter has not reached yet).
func lastCompletedRound(l Layout, id int) (int, error) {
	last := -1
	for r := 0; ; r++ {
		if _, err := os.Stat(l.MarkerFile(r, id)); err != nil {
			if os.IsNotExist(err) {
				return last, nil
			}
			return last, err
		}
		last = r
	}
}

// fileBarrier is one node's cluster.Barrier and cluster.Membership over the
// work directory (see the package comment above for the protocol). Only the
// node's worker goroutine calls it.
type fileBarrier struct {
	l             Layout
	k             int
	poll, timeout time.Duration
	dict          *rdf.Dict
	rules         []rules.Rule
	// claimed lists the dead peers this node has taken over; pending holds
	// those its worker has not absorbed yet.
	claimed, pending []int
}

// Sync implements cluster.Barrier: post this node's marker (and the
// markers of the peers it took over), then poll for every node's marker of
// the round and return their sum.
//
//powl:ignore wallclock the shared-FS barrier polls against a real deadline — liveness, not output.
func (b *fileBarrier) Sync(ctx context.Context, id, round, sent int) (int, error) {
	if err := writeMarker(b.l.MarkerFile(round, id), sent); err != nil {
		return 0, err
	}
	for _, v := range b.claimed {
		if err := writeMarker(b.l.MarkerFile(round, v), 0); err != nil {
			return 0, err
		}
	}
	deadline := time.Now().Add(b.timeout)
	for {
		total, missing := 0, false
		for i := 0; i < b.k; i++ {
			raw, err := os.ReadFile(b.l.MarkerFile(round, i))
			if err != nil {
				missing = true
				if adopterOf(b.l, b.k, i) == id && !slices.Contains(b.claimed, i) {
					b.claimed = append(b.claimed, i)
					b.pending = append(b.pending, i)
					if err := writeMarker(b.l.MarkerFile(round, i), 1); err != nil {
						return 0, err
					}
				}
				continue
			}
			n, err := strconv.Atoi(strings.TrimSpace(string(raw)))
			if err != nil {
				return 0, fmt.Errorf("fscluster: bad marker %s: %w", b.l.MarkerFile(round, i), err)
			}
			total += n
		}
		if !missing {
			return total, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("fscluster: node %d: timed out waiting for round %d markers", id, round)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(b.poll):
		}
	}
}

// Abort implements cluster.Barrier: a failing node simply stops writing
// markers; its peers learn of it from the supervisor.
func (b *fileBarrier) Abort() {}

// Died implements cluster.Membership: the process is about to exit, and the
// supervisor will notice the missing marker.
func (b *fileBarrier) Died(id, round int) {}

// Dead implements cluster.Membership. A node never steps aside on its own:
// a supervisor may declare a slow node dead after its marker was already
// read, in which case nobody adopts it and it must finish its partition.
func (b *fileBarrier) Dead(id int) bool { return false }

// Claim implements cluster.Membership: the peers claimed at the barrier
// before round.
func (b *fileBarrier) Claim(id, round int) []int {
	out := b.pending
	b.pending = nil
	return out
}

// Assignment implements cluster.Membership: node v's base partition from
// its part file, and the rule set every node shares.
func (b *fileBarrier) Assignment(v int) (cluster.Assignment, error) {
	g := rdf.NewGraph()
	if err := readGraphFile(b.l.PartFile(v), b.dict, g); err != nil {
		return cluster.Assignment{}, err
	}
	return cluster.Assignment{Base: g.Triples(), Rules: b.rules}, nil
}

// writeMarker posts a round marker carrying n.
func writeMarker(path string, n int) error {
	return rio.WriteFileAtomic(path, []byte(strconv.Itoa(n)))
}

// adopterOf follows node i's dead-file chain (victim, its adopter, that
// one's adopter, ...) to the live node that owns i's partition now; -1 when
// i is not dead.
func adopterOf(l Layout, k, i int) int {
	owner := -1
	for a, hops := i, 0; hops <= k; hops++ {
		next, dead := readDeadFile(l, a)
		if !dead {
			return owner
		}
		owner, a = next, next
	}
	return -1
}
